package hanayo

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func figParams(p int) perfmodel.Params     { return perfmodel.FigureOneDefaults(p, 1) }
func figParamsW(p, w int) perfmodel.Params { return perfmodel.FigureOneDefaults(p, w) }

// TestFacadeEndToEnd drives the whole public API surface the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	plan := Plan{
		Scheme:    "hanayo-w2",
		Cluster:   FullNVLink(8),
		Model:     BERTStyle(),
		P:         8,
		D:         1,
		B:         8,
		MicroRows: 2,
	}
	fits, err := plan.Fits()
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Fatal("BERT on 8×80GB should fit")
	}
	thr, err := plan.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatal("zero throughput")
	}

	s, err := ScheduleByName("hanayo-w1", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(s); err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(s, Uniform{Tf: 0.5, Tb: 1, Tc: 0.02}, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Gantt(&buf, r, 60)
	if !strings.Contains(buf.String(), "hanayo-w1") {
		t.Fatal("gantt missing scheme name")
	}

	// Real training through the facade.
	tiny := Plan{
		Scheme:    "dapple",
		Cluster:   FullNVLink(2),
		Model:     TinyModel(6, 8, 2, 16, 4, true),
		P:         2,
		D:         1,
		B:         2,
		MicroRows: 1,
	}
	eng, err := tiny.Engine(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(1, 16, 4)
	if _, err := eng.Step(gen.Next(2)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalyticModels(t *testing.T) {
	if ModelSizeGB(BERTStyle()) < 50 {
		t.Fatal("BERT model size implausibly small")
	}
	gp := GPipeBubble(figParams(8))
	hb := HanayoBubble(figParamsW(8, 4))
	if hb >= gp {
		t.Fatalf("hanayo bubble %g not below gpipe %g", hb, gp)
	}
}

func TestFacadeAutoTune(t *testing.T) {
	cands := AutoTune(TACC(8), BERTStyle(), SearchSpace{
		PD: [][2]int{{4, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1,
	})
	if _, ok := Best(cands); !ok {
		t.Fatal("no feasible candidate")
	}
}

// TestFacadeTuner exercises the exported tuning service end to end: a
// served sweep matches the standalone one and a repeat is answered from
// the cross-sweep cache.
func TestFacadeTuner(t *testing.T) {
	space := SearchSpace{
		PD: [][2]int{{4, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1,
	}
	want := AutoTune(TACC(8), BERTStyle(), space)
	tuner := NewTuner(TunerOptions{Runners: 2})
	got := tuner.AutoTune(TACC(8), BERTStyle(), space)
	if len(got) != len(want) {
		t.Fatalf("served sweep has %d candidates, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Plan.Scheme != want[i].Plan.Scheme || got[i].Throughput != want[i].Throughput {
			t.Fatalf("rank %d: served (%s, %g) != standalone (%s, %g)",
				i, got[i].Plan.Scheme, got[i].Throughput, want[i].Plan.Scheme, want[i].Throughput)
		}
	}
	if tuner.CacheLen() == 0 {
		t.Fatal("served sweep must populate the cache")
	}
	again := tuner.AutoTune(TACC(8), BERTStyle(), space)
	if len(again) != len(want) {
		t.Fatal("cached repeat lost candidates")
	}

	// The reusable executors are part of the public surface too.
	s, err := ScheduleByName("hanayo-w2", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var runner SimRunner // zero value works
	var cost Uniform = Uniform{Tf: 1, Tb: 2, Tc: 0.05}
	r1, err := runner.Run(s, cost, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := r1.Makespan
	r2, err := runner.Run(s, cost, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != mk {
		t.Fatalf("reused runner diverged: %g != %g", r2.Makespan, mk)
	}
	replayer := NewMemReplayer()
	mt, err := replayer.Run(s, BERTStyle(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Curves) != 4 {
		t.Fatalf("replay produced %d curves, want 4", len(mt.Curves))
	}
}
