//go:build race

package core_test

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a random share of Puts and so perturbs exact
// allocation counts on paths that draw from a pool.
const raceEnabled = true
