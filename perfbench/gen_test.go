package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

func tuneStream(seed uint64, n int) []tuneReq {
	g := newTuneGen(seed)
	out := make([]tuneReq, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

type fabricDraw struct {
	Req   tuneReq
	Fresh bool
}

func fabricStream(seed uint64, n int) []fabricDraw {
	g := newFabricGen(seed)
	out := []fabricDraw{}
	for _, r := range g.primeSet() {
		out = append(out, fabricDraw{r, true})
	}
	for i := 0; i < n; i++ {
		r, fresh := g.next()
		out = append(out, fabricDraw{r, fresh})
	}
	return out
}

func churnStream(seed uint64, n int) []sessionSpec {
	g := newChurnGen(seed)
	out := make([]sessionSpec, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// TestStreamsRepeatPerSeed: the same seed replays an identical request
// and churn stream, and another seed gives a different one, so a gain
// can be rechecked on a held-out seed.
func TestStreamsRepeatPerSeed(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream func(uint64) any
	}{
		{"tune", func(s uint64) any { return tuneStream(s, 200) }},
		{"fabric", func(s uint64) any { return fabricStream(s, 400) }},
		{"churn", func(s uint64) any { return churnStream(s, 30) }},
	} {
		if a, b := c.stream(7), c.stream(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", c.name)
		}
		if a, b := c.stream(7), c.stream(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", c.name)
		}
	}
}

// TestStreamShape pins the stratification the workloads rely on: every
// block of tune requests holds each stratum once and exactly one
// perturbed request; one fabric request in fabricNewEvery is first seen;
// every block of sessions uses each scheme menu once, and every two
// sessions see each event kind once.
func TestStreamShape(t *testing.T) {
	reqs := tuneStream(3, 10*len(tuneStrata))
	for b := 0; b < len(reqs); b += len(tuneStrata) {
		seen, perturbed := map[tuneStratum]bool{}, 0
		for _, r := range reqs[b : b+len(tuneStrata)] {
			seen[stratumOf(r)] = true
			if r.perturbed() {
				perturbed++
			}
		}
		if len(seen) != len(tuneStrata) || perturbed != 1 {
			t.Fatalf("block %d: %d strata, %d perturbed", b/len(tuneStrata), len(seen), perturbed)
		}
	}
	draws := fabricStream(3, 20*fabricNewEvery)[fabricPrime:]
	fresh, known := 0, map[tuneReq]bool{}
	for _, d := range fabricStream(3, 0) {
		known[d.Req] = true
	}
	for _, d := range draws {
		if d.Fresh {
			fresh++
			if known[d.Req] {
				t.Fatalf("first-seen request %s was already published", d.Req)
			}
		} else if !known[d.Req] {
			t.Fatalf("repeat %s was never published", d.Req)
		}
		known[d.Req] = true
	}
	if fresh != 20 {
		t.Fatalf("%d first-seen requests in %d draws, want 20", fresh, len(draws))
	}
	specs := churnStream(3, 30)
	for b := 0; b < len(specs); b += len(menus) {
		got := map[string]bool{}
		for _, s := range specs[b : b+len(menus)] {
			got[s.Menu] = true
		}
		if len(got) != len(menus) {
			t.Fatalf("session block %d uses menus %v", b/len(menus), got)
		}
	}
	for i := 0; i+1 < len(specs); i += 2 {
		kinds := map[churnKind]bool{}
		for _, s := range specs[i : i+2] {
			for _, e := range s.Events {
				kinds[e.Kind] = true
			}
		}
		if len(kinds) != len(churnKinds) {
			t.Fatalf("sessions %d and %d see event kinds %v", i, i+1, kinds)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the per-layer metric list in step
// with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, perfbench %+v", i, got, m)
		}
	}
	if len(spec.EndToEnd) != len(metricUnits) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench reports %d", len(spec.EndToEnd), len(metricUnits))
	}
	for _, m := range spec.EndToEnd {
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s: BENCHMARK.json unit %q, perfbench %q", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
}

// TestRankingDigest: the digest sees every compared field, and the wire
// form ignores only the failure diagnostics the cache tier drops.
func TestRankingDigest(t *testing.T) {
	base := []core.Candidate{
		{Plan: core.Plan{Scheme: "dapple", P: 4, D: 2, B: 8, MicroRows: 1}, Throughput: 3.5, PeakGB: 20},
		{Plan: core.Plan{Scheme: "gpipe", P: 8, D: 1, B: 8, MicroRows: 1}, Failed: true, FailedDevice: 1, FailTimeS: 0.5, RecoveryS: 31},
	}
	d := rankingDigest(base, 0, false)
	mutants := map[string]func(c []core.Candidate){
		"throughput": func(c []core.Candidate) { c[0].Throughput = math.Nextafter(3.5, 4) },
		"scheme":     func(c []core.Candidate) { c[0].Plan.Scheme = "chimera" },
		"bound":      func(c []core.Candidate) { c[1].BoundPruned = true },
		"err":        func(c []core.Candidate) { c[1].Err = errors.New("x") },
		"failed dev": func(c []core.Candidate) { c[1].FailedDevice = 0 },
	}
	for name, mutate := range mutants {
		c := append([]core.Candidate(nil), base...)
		mutate(c)
		if rankingDigest(c, 0, false) == d {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
	c := append([]core.Candidate(nil), base...)
	c[1].FailedDevice, c[1].FailTimeS, c[1].RecoveryS = 0, 0, 0
	if rankingDigest(c, 0, true) != rankingDigest(base, 0, true) {
		t.Error("the wire digest depends on failure diagnostics the wire drops")
	}
	c[0].Throughput = 0
	if rankingDigest(c, 1, true) == rankingDigest(base, 1, true) || rankingDigest(c[1:], 1, true) != rankingDigest(base[1:], 1, true) {
		t.Error("a top-1 digest must cover exactly the first row")
	}
}

// TestGridCellsMatchCore: gridCells is this package's copy of the grid a
// sweep lays out, and core.cells_per_op and samples_per_s on the tune
// workloads count from it. Rerank reports how many cells the program's
// own sweep laid out; the two must agree on every kind of request the
// workloads draw, or the copy has drifted from core's defaults.
func TestGridCellsMatchCore(t *testing.T) {
	reqs := []tuneReq{{Preset: "tacc", Devices: 32, Model: "bert", B: 16, Rows: 2, Fig10: true}}
	seen := map[string]bool{}
	for _, r := range append(tuneStream(7, 200), fabricStream(7, 0)[0].Req) {
		// The grid depends on the cluster size and the scheme menu; keep one
		// request per (size, menu, fault plan, TopK) so the test stays short.
		k := fmt.Sprint(r.Devices, r.Extra, r.HasFault, r.TopK, r.Fig10)
		if !seen[k] {
			seen[k] = true
			reqs = append(reqs, r)
		}
	}
	for _, r := range reqs {
		cl, model, space, err := r.build(2)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		_, stats := core.NewTuner(core.TunerOptions{Runners: 2}).Rerank(nil, cl, model, space)
		if got := len(gridCells(r)); got != stats.Cells {
			t.Errorf("%s: gridCells lays out %d cells, core's sweep %d", r, got, stats.Cells)
		}
	}
}
