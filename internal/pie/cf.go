package pie

import (
	"fmt"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/inc"
	"grape/internal/mpi"
	"grape/internal/seq"
)

// CFQuery configures a collaborative-filtering run (Section 5.3): the SGD
// hyper-parameters, the fraction of observed ratings used for training
// (|ET| / |E| — 90% and 50% in the paper's experiments), and the maximum
// number of refinement rounds (supersteps) before the model is considered
// converged, which is the paper's "predetermined maximum number of
// supersteps" termination condition.
type CFQuery struct {
	Config        seq.SGDConfig
	TrainFraction float64
	MaxRounds     int
}

// DefaultCFQuery returns the configuration used by the benchmarks.
func DefaultCFQuery(trainFraction float64) CFQuery {
	return CFQuery{Config: seq.DefaultSGDConfig(), TrainFraction: trainFraction, MaxRounds: 6}
}

// CFModel is the assembled output of the CF program: the learned latent
// factor vectors and the root-mean-square error over the training set.
type CFModel struct {
	Factors      seq.Factors
	TrainingRMSE float64
	Rounds       int
}

// CF is the PIE program for collaborative filtering: PEval is the sequential
// SGD algorithm run over the fragment's local training edges; IncEval is the
// incremental ISGD algorithm applied to the ratings incident to the factor
// vectors refreshed by incoming messages. Factor vectors of border vertices
// are the update parameters; conflicts are resolved by keeping the vector
// with the newest timestamp (aggregateMsg = max over timestamps).
type CF struct{}

type cfState struct {
	factors seq.Factors
	ratings []seq.Rating
	rounds  int
}

// Name implements core.Program.
func (CF) Name() string { return "CF" }

// PEval implements core.Program.
func (CF) PEval(ctx *core.Context) error {
	q, ok := ctx.Query.(CFQuery)
	if !ok {
		return fmt.Errorf("pie: CF query must be a CFQuery, got %T", ctx.Query)
	}
	g := ctx.Fragment.Graph

	st, _ := ctx.State.(*cfState)
	if st == nil {
		// Local training set: ratings whose user vertex is owned by this
		// fragment (edge-cut places a user's edges with the user).
		var local []seq.Rating
		for _, r := range seq.RatingsFromGraph(g) {
			if ctx.Fragment.Owns(r.User) {
				local = append(local, r)
			}
		}
		train, _ := seq.SplitTraining(local, q.TrainFraction)
		st = &cfState{factors: make(seq.Factors), ratings: train}
		ctx.State = st
	}

	// Message preamble: a (factor vector, timestamp) variable per border
	// node, initially empty at timestamp 0.
	for s := 0; s < ctx.Fragment.NumBorder(); s++ {
		ctx.DeclareAt(s, 0, 0, nil)
	}

	// Sequential SGD over the local mini-batch.
	seq.Train(st.ratings, q.Config, st.factors)
	st.rounds = 1
	shipFactors(ctx, st, 1)
	return nil
}

// IncEval implements core.Program: refresh the factor vectors received from
// other fragments and retrain only the affected ratings with ISGD.
func (CF) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	q, ok := ctx.Query.(CFQuery)
	if !ok {
		return fmt.Errorf("pie: CF query must be a CFQuery, got %T", ctx.Query)
	}
	st, ok := ctx.State.(*cfState)
	if !ok {
		return fmt.Errorf("pie: CF IncEval called before PEval")
	}
	st.rounds++
	if st.rounds > q.MaxRounds {
		// Convergence condition reached: stop refining (and stop shipping),
		// which lets the fixpoint terminate.
		return nil
	}
	affected := make(map[graph.VertexID]bool)
	for _, m := range msgs {
		if m.Vertex == core.RawMessageVertex || len(m.Data) == 0 {
			continue
		}
		v := graph.VertexID(m.Vertex)
		st.factors[v] = mpi.BytesToFloat64s(m.Data)
		affected[v] = true
	}
	if len(affected) == 0 {
		return nil
	}
	inc.ISGD(st.ratings, st.factors, affected, q.Config)
	shipFactors(ctx, st, int64(ctx.Superstep))
	return nil
}

// shipFactors records the current factor vector of every border vertex this
// fragment has an opinion about, stamped with the superstep as a timestamp
// (carried in the update's Value so that the freshest vector wins
// aggregation).
func shipFactors(ctx *core.Context, st *cfState, timestamp int64) {
	for s, v := range ctx.Fragment.Border() {
		if vec, ok := st.factors[v]; ok {
			ctx.SetVarAt(s, 0, float64(timestamp), mpi.Float64sToBytes(vec))
		}
	}
}

// Assemble implements core.Program: union the factor vectors of owned
// vertices (border copies defer to their owner) and report the training RMSE
// over all fragments' training edges.
func (CF) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	model := CFModel{Factors: make(seq.Factors)}
	var allRatings []seq.Rating
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*cfState)
		if !ok {
			continue
		}
		if st.rounds > model.Rounds {
			model.Rounds = st.rounds
		}
		allRatings = append(allRatings, st.ratings...)
		for v, vec := range st.factors {
			if ctx.Fragment.Owns(v) {
				model.Factors[v] = vec
			}
		}
	}
	// Vertices that only ever appeared as border copies fall back to the
	// freshest copy any fragment holds.
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*cfState)
		if !ok {
			continue
		}
		for v, vec := range st.factors {
			if _, done := model.Factors[v]; !done {
				model.Factors[v] = vec
			}
		}
	}
	model.TrainingRMSE = seq.RMSE(model.Factors, allRatings)
	return model, nil
}

// Aggregate implements core.Program: the freshest factor vector wins, using
// the timestamp carried in Value (monotonically increasing supersteps).
func (CF) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return core.MaxAggregate(existing, incoming)
}
