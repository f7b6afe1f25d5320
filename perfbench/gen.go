package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

// The request and churn generators. Everything a workload sends to the
// system is drawn here from the workload seed, so the same seed replays
// the same stream and a gain can be rechecked on a held-out seed. Streams
// are stratified into fixed-size blocks that contain every heavy stratum
// exactly once (in seeded order): a run's mix of expensive and cheap
// requests then varies little from seed to seed, which keeps percentiles
// comparable across seeds.

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// faultSpec is a comparable description of one sim.FaultPlan event, so
// requests can be used as map keys and compared with ==.
type faultSpec struct {
	Kind   sim.FaultKind
	Dev    int
	At     float64
	Factor float64
}

// tuneReq is one sweep request: a cluster, a model and a search space.
type tuneReq struct {
	Preset    string // cluster preset: tacc, tc, pc, fc
	Devices   int
	Model     string // bert or gpt
	B         int
	Rows      int    // sequences per micro-batch
	Extra     string // scheme added to the default menu, or ""
	TopK      int
	Straggler string    // cluster.ApplyStraggler spec, or ""
	Fault     faultSpec // zero Kind+Factor+At means no fault plan
	HasFault  bool
	Fig10     bool // the paper's Fig 10 cell (explicit PD and waves)
}

// perturbed reports whether the request plans for a changed cluster (a
// straggler or a fault plan): these are the tune workloads' recovery ops.
func (r tuneReq) perturbed() bool { return r.Straggler != "" || r.HasFault }

func (r tuneReq) String() string {
	s := fmt.Sprintf("%s%d/%s/B%d/r%d/k%d", r.Preset, r.Devices, r.Model, r.B, r.Rows, r.TopK)
	if r.Extra != "" {
		s += "/+" + r.Extra
	}
	if r.Straggler != "" {
		s += "/straggler " + r.Straggler
	}
	if r.HasFault {
		s += fmt.Sprintf("/fault %s dev%d@%.2f", r.Fault.Kind, r.Fault.Dev, r.Fault.At)
	}
	if r.Fig10 {
		s += "/fig10"
	}
	return s
}

// build materializes the request as the arguments of Tuner.AutoTune.
func (r tuneReq) build(workers int) (*cluster.Cluster, nn.Config, core.SearchSpace, error) {
	cl, err := cluster.ByName(r.Preset, r.Devices)
	if err != nil {
		return nil, nn.Config{}, core.SearchSpace{}, err
	}
	if cl, err = cluster.ApplyStraggler(cl, r.Straggler); err != nil {
		return nil, nn.Config{}, core.SearchSpace{}, err
	}
	model := nn.BERTStyle()
	if r.Model == "gpt" {
		model = nn.GPTStyle()
	}
	space := core.SearchSpace{B: r.B, MicroRows: r.Rows, TopK: r.TopK, Workers: workers}
	if r.Extra != "" {
		space.Schemes = append(core.DefaultSchemes(), r.Extra)
	}
	if r.HasFault {
		space.Faults = &sim.FaultPlan{RestartCost: 30, Events: []sim.FaultEvent{{
			Kind: r.Fault.Kind, Dev: r.Fault.Dev, At: r.Fault.At, Factor: r.Fault.Factor}}}
	}
	if r.Fig10 {
		space.PD = [][2]int{{8, 4}, {16, 2}, {32, 1}}
		space.Waves = []int{1, 2, 4}
	}
	return cl, model, space, nil
}

// tuneStratum is one heavy stratum of the sweep stream: cluster size,
// model and search mode dominate a cold sweep's cost.
type tuneStratum struct {
	devices int
	model   string
	topK    int
}

var tuneStrata = func() []tuneStratum {
	var s []tuneStratum
	for _, d := range []int{16, 32} {
		for _, m := range []string{"bert", "gpt"} {
			for _, k := range []int{0, 3} {
				s = append(s, tuneStratum{d, m, k})
			}
		}
	}
	return s
}()

// tuneGen draws an endless stream of sweep requests. Every request runs
// on a fresh Tuner, so a repeat in this stream costs as much as a new one.
type tuneGen struct {
	rng       *rand.Rand
	block     []tuneReq
	perturbed []int // strata that carry the next blocks' perturbed request
}

func newTuneGen(seed uint64) *tuneGen { return &tuneGen{rng: newRNG(seed, 1)} }

func (g *tuneGen) next() tuneReq {
	if len(g.block) == 0 {
		g.fillBlock()
	}
	r := g.block[0]
	g.block = g.block[1:]
	return r
}

// fillBlock lays out one block: every stratum once, in seeded order, with
// exactly one perturbed request per block. The perturbed request visits
// every stratum once per len(tuneStrata) blocks.
func (g *tuneGen) fillBlock() {
	rng := g.rng
	if len(g.perturbed) == 0 {
		g.perturbed = rng.Perm(len(tuneStrata))
	}
	perturbed := g.perturbed[0]
	g.perturbed = g.perturbed[1:]
	for i, st := range tuneStrata {
		r := tuneReq{
			Preset:  cluster.Names()[rng.IntN(len(cluster.Names()))],
			Devices: st.devices,
			Model:   st.model,
			B:       []int{8, 12, 16}[rng.IntN(3)],
			Rows:    []int{1, 2, 4}[rng.IntN(3)],
			TopK:    st.topK,
		}
		if rng.IntN(4) == 0 {
			r.Extra = []string{"zbh1", "interleaved-v2", "gems"}[rng.IntN(3)]
		}
		if i == perturbed {
			if rng.IntN(2) == 0 {
				r.Straggler = fmt.Sprintf("%d:%.2f", rng.IntN(st.devices), 0.3+0.5*rng.Float64())
			} else {
				// Faults target devices 0 and 1, inside every cell's pipeline
				// (the smallest default P is 2).
				r.HasFault = true
				switch rng.IntN(3) {
				case 0:
					r.Fault = faultSpec{Kind: sim.FaultSlowDown, Dev: rng.IntN(2), Factor: 0.5, At: 0}
				case 1:
					r.Fault = faultSpec{Kind: sim.FaultFail, Dev: rng.IntN(2), At: 2 * rng.Float64()}
				default:
					r.Fault = faultSpec{Kind: sim.FaultSlowDown, Dev: rng.IntN(2), Factor: 0.25 + 0.5*rng.Float64(), At: rng.Float64()}
				}
			}
		} else if st.devices == 32 && st.model == "bert" && st.topK == 0 && rng.IntN(4) == 0 {
			r = tuneReq{Preset: "tacc", Devices: 32, Model: "bert", B: 16, Rows: 2, Fig10: true}
		}
		g.block = append(g.block, r)
	}
	rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
}

// fabricGen draws the tune-fabric stream: one request in fabricNewEvery is
// first seen (its sweep simulates and publishes); the rest repeat earlier
// requests, so they hit the shared tier. A repeat first picks a stratum
// (exhaustive strata three times as often as TopK ones) and whether it
// plans for a perturbed cluster (one in eight), then a request of that
// kind Zipf-skewed towards the oldest. Picking the kind first keeps the
// cost mix of repeats the same from seed to seed; the 3:1 weighting keeps
// op_p50_ms inside the exhaustive repeats and op_p90_ms inside the TopK
// repeats, which re-simulate the cells their first sweep cut short.
type fabricGen struct {
	rng    *rand.Rand
	fresh  *tuneGen
	pool   map[fabricKind][]tuneReq
	seen   map[tuneReq]bool
	offset int // position of the first-seen request within each window
	n      int
}

type fabricKind struct {
	stratum   tuneStratum
	perturbed bool
}

// fabricNewEvery sets the first-seen share (1/20). It stays well away from
// 1/10 so that op_p90_ms falls inside the population of repeats.
const fabricNewEvery = 20

// fabricPrime is the number of requests set-up publishes before the
// measured window starts: enough blocks that every stratum has a
// perturbed request to repeat.
var fabricPrime = len(tuneStrata) * len(tuneStrata)

func newFabricGen(seed uint64) *fabricGen {
	rng := newRNG(seed, 2)
	return &fabricGen{rng: rng, fresh: newTuneGen(seed), pool: map[fabricKind][]tuneReq{},
		seen: map[tuneReq]bool{}, offset: rng.IntN(fabricNewEvery)}
}

func stratumOf(r tuneReq) tuneStratum { return tuneStratum{r.Devices, r.Model, r.TopK} }

// unseen draws requests until one is new to the pool.
func (g *fabricGen) unseen() tuneReq {
	for {
		r := g.fresh.next()
		if !g.seen[r] {
			g.seen[r] = true
			k := fabricKind{stratumOf(r), r.perturbed()}
			g.pool[k] = append(g.pool[k], r)
			return r
		}
	}
}

// primeSet returns the requests set-up publishes; they seed the pool.
func (g *fabricGen) primeSet() []tuneReq {
	var out []tuneReq
	for len(out) < fabricPrime {
		out = append(out, g.unseen())
	}
	return out
}

// next returns the next request and whether it is first seen.
func (g *fabricGen) next() (tuneReq, bool) {
	i := g.n
	g.n++
	if i%fabricNewEvery == g.offset {
		return g.unseen(), true
	}
	for {
		st := tuneStrata[g.rng.IntN(len(tuneStrata))]
		if st.topK > 0 && g.rng.IntN(3) != 0 {
			continue // TopK strata get a third of the exhaustive strata's weight
		}
		reqs := g.pool[fabricKind{st, g.rng.IntN(8) == 0}]
		if len(reqs) == 0 {
			continue
		}
		z := rand.NewZipf(g.rng, 1.1, 8, uint64(len(reqs)-1))
		return reqs[z.Uint64()], false
	}
}

// Train churn. A run is a sequence of elastic sessions; each starts on a
// fresh small cluster, trains a tiny transformer and absorbs a scripted
// event about every churnEvery steps.

// menu names the scheme menus the sessions use. At this scale the default
// menu ranks DAPPLE (1F1B) first, the empty menu a Hanayo wave and
// {"chimera"} Chimera, so a run trains all three families.
var menus = []string{"default", "hanayo", "chimera"}

func menuSchemes(m string) []string {
	switch m {
	case "hanayo":
		return []string{}
	case "chimera":
		return []string{"chimera"}
	}
	return nil
}

type churnKind string

const (
	churnLeave churnKind = "leave"
	churnJoin  churnKind = "join"
	churnSpeed churnKind = "speed"
	churnFail  churnKind = "fail"
)

var churnKinds = []churnKind{churnLeave, churnJoin, churnSpeed, churnFail}

// churnEvent is one scripted disturbance, applied before step Step.
type churnEvent struct {
	Step   int
	Kind   churnKind
	Dev    int // device to drop/clone/slow (reduced modulo the cluster size)
	Factor float64
	Micro  int // micro-batch a fail event strikes
}

// sessionSpec is one elastic session of the train-elastic stream.
type sessionSpec struct {
	Preset  string
	Devices int
	Menu    string
	Seed    uint64
	Steps   int
	Events  []churnEvent
}

const (
	sessionSteps = 60
	churnEvery   = 20
	// trainRows is the batch each step trains: it splits evenly into the
	// B·D micro-batches of every plan the elastic space can pick.
	trainRows = 8
)

// elasticModel has 16 partitionable units, enough for the deepest stage
// split the elastic space can pick (Hanayo with two waves on P=4).
func elasticModel() nn.Config { return nn.Tiny(14, 16, 2, 32, 8, true) }

// elasticSpace is the grid every session replans over. Both PD pairs use
// four devices, so they stay equally valid on every cluster a session can
// shrink to (a session starts with at least six devices and loses at most
// two).
func elasticSpace(menu string, workers int) core.SearchSpace {
	return core.SearchSpace{
		Schemes:   menuSchemes(menu),
		PD:        [][2]int{{2, 2}, {4, 1}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
		Workers:   workers,
		TopK:      2,
	}
}

// churnGen draws sessions; every block of three covers each menu once.
type churnGen struct {
	rng   *rand.Rand
	block []string
	kinds []churnKind // event kinds for the next sessions
}

func newChurnGen(seed uint64) *churnGen { return &churnGen{rng: newRNG(seed, 3)} }

func (g *churnGen) next() sessionSpec {
	rng := g.rng
	if len(g.block) == 0 {
		g.block = append([]string(nil), menus...)
		rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	s := sessionSpec{
		Preset:  cluster.Names()[rng.IntN(len(cluster.Names()))],
		Devices: 6 + rng.IntN(3),
		Menu:    g.block[0],
		Seed:    rng.Uint64(),
		Steps:   sessionSteps,
	}
	g.block = g.block[1:]
	// Two events per session, so a session shrinks by at most two devices;
	// every two sessions see each of the four kinds once, in seeded order.
	for e := 1; e*churnEvery < sessionSteps; e++ {
		if len(g.kinds) == 0 {
			g.kinds = append(g.kinds, churnKinds...)
			rng.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
		}
		s.Events = append(s.Events, churnEvent{
			Step:   e*churnEvery + rng.IntN(5) - 2,
			Kind:   g.kinds[0],
			Dev:    rng.IntN(64),
			Factor: 0.3 + 0.6*rng.Float64(),
			Micro:  rng.IntN(4),
		})
		g.kinds = g.kinds[1:]
	}
	return s
}
