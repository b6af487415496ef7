package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"grape/internal/graph"
)

// stamp identifies what produced a result, so results from different
// machines, code or seeds are never compared by accident.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Traced     bool           `json:"traced"`
	Seconds    float64        `json:"seconds"`
	Dataset    string         `json:"dataset"`
	Vertices   int            `json:"vertices"`
	Edges      int            `json:"edges"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"git_revision"`
	SourceHash string         `json:"source_sha256"`
	Samples    map[string]int `json:"samples"`
}

func newStamp(cfg config, w spec, g *graph.Graph) stamp {
	return stamp{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds,
		Dataset: w.dataset, Vertices: g.NumVertices(), Edges: g.NumEdges(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: gitRevision(), SourceHash: sourceHash(),
	}
}

// moduleRoot finds the engine's module root: the directory above the
// benchmark's own. The benchmark runs from the repository root (run.sh) or
// from its own directory (go test).
func moduleRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "grape.go")); err == nil {
			return dir
		}
	}
	return "."
}

// gitRevision reads HEAD without running git; a checkout without .git
// reports "unknown" and is identified by its source hash instead.
func gitRevision() string {
	gitDir := filepath.Join(moduleRoot(), ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and go.mod file of the module, in path
// order, so two results name the code they measured even outside git.
func sourceHash() string {
	root := moduleRoot()
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
