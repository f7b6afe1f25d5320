package core

import (
	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankDefaultTopK is the replanning width when the caller's space does
// not name one: keep the first 3 ranks exact. The smallest useful K keeps
// the sweep cheap — churn replanning calls Rerank on a latency budget.
const rerankDefaultTopK = 3

// RerankStats reports what one replanning sweep did: the grid it laid
// out, the cells the branch-and-bound cutoff eliminated, and the
// simulations it issued. SweepSims is counted per sweep, so concurrent
// sweeps in the same process never inflate it.
type RerankStats struct {
	Cells  int   // grid cells laid out by the sweep
	Rows   int   // output rows (a wave group collapses to one row)
	Pruned int64 // cells the cutoff eliminated (bound skips + deadline aborts)
	// SeedSims is always 0; it stays for callers that sum it with
	// SweepSims.
	SeedSims  int64
	SweepSims int64 // simulations issued by the sweep
}

// Rerank is the replanning sweep for membership churn: a cold TopK
// AutoTune of the full grid on cl, the post-event cluster. Its first
// TopK ranks are bit-for-bit the first TopK ranks of an exhaustive
// AutoTune on cl with the same space; below rank TopK it surfaces proven
// bounds. TopK defaults to 3 when the space leaves it unset, and shard
// restrictions are ignored — replanning always ranks the full grid.
// Evaluations go through the Tuner's cache tiers, so a replan onto a
// membership state the Tuner has already swept re-hits its entries.
//
// prev, the ranking of the cluster the event replaced, is unused: warm-
// starting the cutoff from it measured as no cheaper than sweeping cold.
func (t *Tuner) Rerank(prev []Candidate, cl *cluster.Cluster, model nn.Config, space SearchSpace) ([]Candidate, RerankStats) {
	if space.TopK <= 0 {
		space.TopK = rerankDefaultTopK
	}
	space.shardIndex, space.shardCount = 0, 0

	var stats RerankStats
	out := sweepGrid(cl, model, space, t, &stats)
	sortCandidates(out)
	return out, stats
}
