package memtrace

import (
	"math"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// TestReplayerReuseMatchesFreshRuns reuses one Replayer across ascending
// and descending shapes and several schemes, comparing every field against
// a fresh Run — the arena re-growth correctness check for the memory
// executor.
func TestReplayerReuseMatchesFreshRuns(t *testing.T) {
	cfg := nn.BERTStyle()
	shapes := [][2]int{{2, 4}, {8, 16}, {4, 4}, {2, 2}}
	r := NewReplayer()
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "hanayo-w2"} {
		for _, shape := range shapes {
			p, b := shape[0], shape[1]
			s, err := sched.ByName(scheme, p, b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
			}
			fresh, err := Run(s, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := r.Run(s, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < p; d++ {
				if reused.PeakActs[d] != fresh.PeakActs[d] || reused.PeakBytes[d] != fresh.PeakBytes[d] {
					t.Fatalf("%s P=%d B=%d device %d: reused peaks (%d, %g) != fresh (%d, %g)",
						scheme, p, b, d, reused.PeakActs[d], reused.PeakBytes[d],
						fresh.PeakActs[d], fresh.PeakBytes[d])
				}
				if len(reused.Curves[d]) != len(fresh.Curves[d]) {
					t.Fatalf("%s P=%d B=%d device %d: curve length %d != %d",
						scheme, p, b, d, len(reused.Curves[d]), len(fresh.Curves[d]))
				}
				for i := range fresh.Curves[d] {
					if reused.Curves[d][i] != fresh.Curves[d][i] {
						t.Fatalf("%s P=%d B=%d device %d sample %d: %+v != %+v",
							scheme, p, b, d, i, reused.Curves[d][i], fresh.Curves[d][i])
					}
				}
			}
		}
	}
}

// TestReplayerAllocsZero pins the steady-state allocation count of the
// memory replay at zero once the arenas are warm.
func TestReplayerAllocsZero(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	if _, err := r.Run(s, cfg, 2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(s, cfg, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Replayer.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestBudgetMatchesMemmodelUnits asserts the replay's byte unit is exactly
// memmodel.StageActBytes: every device's PeakBytes is its PeakActs times
// the stage-activation bytes, so the replay and the memory estimate count
// in the same unit.
func TestBudgetMatchesMemmodelUnits(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	unit := memmodel.StageActBytes(s, cfg, 2)
	for d := range res.PeakBytes {
		want := float64(res.PeakActs[d]) * unit
		if math.Abs(res.PeakBytes[d]-want) > 1e-6*want {
			t.Fatalf("device %d: peak bytes %g != peak acts %d × stage bytes %g",
				d, res.PeakBytes[d], res.PeakActs[d], unit)
		}
	}
}
