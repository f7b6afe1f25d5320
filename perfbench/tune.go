package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/cachewire"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// sweepOp is what one traced sweep leaves behind for attribution.
type sweepOp struct {
	req     tuneReq
	id      int // root span
	wall    time.Duration
	sims    int64 // core.SimRuns delta
	errRows int
	pruned  int // rows flagged BoundPruned
	cells   int
	cw      time.Duration // time inside the cache tier
}

// gridCells counts the grid cells a sweep of req lays out, applying the
// same defaults as core.SearchSpace: power-of-two (P, D) divisor pairs of
// the cluster size, the three default schemes and waves 1, 2, 4, 8.
// TestGridCellsMatchCore checks it against the cell count core reports.
func gridCells(req tuneReq) [][3]int {
	var pds [][2]int
	waves := []int{1, 2, 4, 8}
	if req.Fig10 {
		pds, waves = [][2]int{{8, 4}, {16, 2}, {32, 1}}, []int{1, 2, 4}
	} else {
		for p := 2; p <= req.Devices; p *= 2 {
			if req.Devices%p == 0 {
				pds = append(pds, [2]int{p, req.Devices / p})
			}
		}
	}
	var cells [][3]int // (scheme index, P, D); scheme index < 0 is wave -w
	nSchemes := len(core.DefaultSchemes())
	if req.Extra != "" {
		nSchemes++
	}
	for _, pd := range pds {
		for s := 0; s < nSchemes; s++ {
			cells = append(cells, [3]int{s, pd[0], pd[1]})
		}
		for _, w := range waves {
			cells = append(cells, [3]int{-w, pd[0], pd[1]})
		}
	}
	return cells
}

func cellScheme(req tuneReq, c [3]int) string {
	if c[0] < 0 {
		return fmt.Sprintf("hanayo-w%d", -c[0])
	}
	if schemes := core.DefaultSchemes(); c[0] < len(schemes) {
		return schemes[c[0]]
	}
	return req.Extra
}

// sweep runs one request on a fresh Tuner (as a fresh worker process
// would) and returns the ranking with the simulations it issued.
func sweep(req tuneReq, workers int, remote cachewire.Cache) ([]core.Candidate, int64, error) {
	cl, model, space, err := req.build(workers)
	if err != nil {
		return nil, 0, err
	}
	t := core.NewTuner(core.TunerOptions{Runners: workers, Remote: remote})
	s0 := core.SimRuns()
	ranking := t.AutoTune(cl, model, space)
	return ranking, core.SimRuns() - s0, nil
}

// rankingDigest hashes the first k rows of a ranking (all rows when k is
// 0) over every field a ranking reproduces bit for bit, so the checks can
// keep a digest instead of the ranking and the clusters its plans point
// to. Over the wire a failed verdict keeps only its flag (cachewire drops
// the device, time and recovery diagnostics by design), so wire=true
// leaves those three fields out.
func rankingDigest(ranking []core.Candidate, k int, wire bool) uint64 {
	if k <= 0 || k > len(ranking) {
		k = len(ranking)
	}
	u64 := binary.LittleEndian.AppendUint64
	f64 := func(b []byte, v float64) []byte { return u64(b, math.Float64bits(v)) }
	flag := func(b []byte, v bool) []byte {
		if v {
			return append(b, 1)
		}
		return append(b, 0)
	}
	b := u64(nil, uint64(k))
	for _, c := range ranking[:k] {
		b = append(append(b, c.Plan.Scheme...), 0)
		for _, v := range []int{c.Plan.P, c.Plan.D, c.Plan.B, c.Plan.MicroRows} {
			b = u64(b, uint64(v))
		}
		b = f64(f64(f64(b, c.Throughput), c.PeakGB), c.Bound)
		b = flag(flag(flag(flag(b, c.OOM), c.Pruned), c.BoundPruned), c.Failed)
		if c.Err != nil {
			b = append(b, c.Err.Error()...)
		}
		b = append(b, 0)
		if !wire {
			b = f64(f64(u64(b, uint64(c.FailedDevice)), c.FailTimeS), c.RecoveryS)
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func rankingStats(ranking []core.Candidate) (errRows, pruned int) {
	for _, c := range ranking {
		if c.Err != nil {
			errRows++
		}
		if c.BoundPruned {
			pruned++
		}
	}
	return errRows, pruned
}

// setupRounds is how many times one tune-cold set-up serves the Fig 10
// pair.
const setupRounds = 8

// topKCheckEvery sets how often tune-cold re-runs a TopK request as an
// exhaustive sweep (untimed) to check that the first K rows agree.
const topKCheckEvery = 8

// runTuneCold: a stream of sweep requests, each on a fresh Tuner
// with no cache tier.
func runTuneCold(cfg config) (*result, error) {
	res := &result{}
	// Set-up serves the Fig 10 cell, exhaustive and TopK, on fresh Tuners,
	// setupRounds times: heap growth, page faults and first-use code paths
	// land here, and the repetition makes the figure long enough to be
	// steady.
	fig10 := tuneReq{Preset: "tacc", Devices: 32, Model: "bert", B: 16, Rows: 2, Fig10: true}
	fig10k := fig10
	fig10k.TopK = 3
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		for range setupRounds {
			for _, req := range []tuneReq{fig10, fig10k} {
				if _, _, err := sweep(req, cfg.workers, nil); err != nil {
					return nil, err
				}
			}
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	gen := newTuneGen(cfg.seed)
	var traced []sweepOp
	c := newClock(cfg.dur)
	topKs := 0
	for c.running() {
		req := gen.next()
		res.attempted++
		t0 := time.Now()
		ranking, sims, err := sweep(req, cfg.workers, nil)
		wall := time.Since(t0)
		if err != nil {
			res.fail("%s: %v", req, err)
			continue
		}
		cells := len(gridCells(req))
		res.record(c, wall, req.perturbed(), float64(cells))
		if len(ranking) == 0 {
			res.fail("%s: empty ranking", req)
		}
		if cfg.rec != nil {
			errRows, pruned := rankingStats(ranking)
			id := cfg.rec.add(0, res.attempted, "core", "sweep "+req.String(), 0, t0, wall)
			traced = append(traced, sweepOp{req: req, id: id, wall: wall, sims: sims,
				errRows: errRows, pruned: pruned, cells: cells})
		}
		if req.TopK > 0 {
			topKs++
			if topKs%topKCheckEvery == 1 {
				c0 := time.Now()
				exact := req
				exact.TopK = 0
				full, _, err := sweep(exact, cfg.workers, nil)
				if err != nil || rankingDigest(ranking, req.TopK, false) != rankingDigest(full, req.TopK, false) {
					res.fail("%s: top-%d rows differ from the exhaustive ranking", req, req.TopK)
				}
				c.pause(c0)
			}
		}
	}
	res.finish(c)
	if cfg.rec != nil {
		res.layers = sweepLayers(cfg, traced, nil)
	}
	return res, nil
}

// fabric is the hanayo-tuned deployment in one process: a two-node
// cachewire ring (replication 2) on loopback TCP.
type fabric struct {
	servers []*cachewire.Server
	ring    *cachewire.Ring
	wg      sync.WaitGroup
}

func startFabric() (*fabric, error) {
	f := &fabric{}
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		sv := cachewire.NewServer(0)
		f.servers = append(f.servers, sv)
		addrs = append(addrs, ln.Addr().String())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			sv.Serve(ln) // returns once close shuts the listener
		}()
	}
	ring, err := cachewire.DialRing(2, addrs...)
	if err != nil {
		f.close()
		return nil, err
	}
	f.ring = ring
	return f, nil
}

// close stops the servers and waits for their accept loops to return.
func (f *fabric) close() {
	if f.ring != nil {
		f.ring.Close()
	}
	for _, sv := range f.servers {
		sv.Close()
	}
	f.wg.Wait()
}

func (f *fabric) nodeErrors() int64 {
	var n int64
	for _, e := range f.ring.Errors() {
		n += e.Errors
	}
	return n
}

// timedCache sits between a Tuner and its remote tier. It always counts
// the keys and hits of batched gets (the full-hit check needs them); on a
// traced pass it also times every call and records it as a span under
// the current op.
type timedCache struct {
	inner cachewire.BatchCache
	rec   *recorder

	mu               sync.Mutex
	parent, op       int
	keys, hits       int // this op's batched gets
	allKeys, allHits int
	gets, puts       int
	getT, putT, tt   time.Duration
}

func (c *timedCache) begin(parent, op int) {
	c.mu.Lock()
	c.parent, c.op, c.keys, c.hits, c.tt = parent, op, 0, 0, 0
	c.mu.Unlock()
}

// done records one call; keys < 0 marks a per-key call.
func (c *timedCache) done(name string, keys int, t0 time.Time, get bool) {
	if c.rec == nil {
		return
	}
	d := time.Since(t0)
	if keys >= 0 {
		name = fmt.Sprintf("%s %d", name, keys)
	}
	c.mu.Lock()
	c.tt += d
	if get {
		c.gets++
		c.getT += d
	} else {
		c.puts++
		c.putT += d
	}
	parent, op := c.parent, c.op
	c.mu.Unlock()
	c.rec.add(parent, op, "cachewire", name, 0, t0, d)
}

func (c *timedCache) Get(key uint64) (cachewire.Entry, bool, error) {
	t0 := time.Now()
	e, ok, err := c.inner.Get(key)
	c.done("get", -1, t0, true)
	return e, ok, err
}

func (c *timedCache) Put(key uint64, e cachewire.Entry) error {
	t0 := time.Now()
	err := c.inner.Put(key, e)
	c.done("put", -1, t0, false)
	return err
}

func (c *timedCache) MultiGet(keys []uint64, out []cachewire.Entry, ok []bool) error {
	t0 := time.Now()
	err := c.inner.MultiGet(keys, out, ok)
	c.done("multiget", len(keys), t0, true)
	n := 0
	for _, hit := range ok {
		if hit {
			n++
		}
	}
	c.mu.Lock()
	c.keys += len(keys)
	c.hits += n
	c.allKeys += len(keys)
	c.allHits += n
	c.mu.Unlock()
	return err
}

func (c *timedCache) MultiPut(keys []uint64, entries []cachewire.Entry) error {
	t0 := time.Now()
	err := c.inner.MultiPut(keys, entries)
	c.done("multiput", len(keys), t0, false)
	return err
}

// runTuneFabric: the hanayo-tuned deployment in one process. Set-up
// starts the ring and publishes the first requests; the measured stream
// then mixes first-seen requests (simulate, then MultiPut) with Zipf-
// skewed repeats (MultiGet hits), each on a fresh Tuner.
func runTuneFabric(cfg config) (*result, error) {
	res := &result{}
	var f *fabric
	var gen *fabricGen
	first := map[tuneReq]uint64{} // digest of each request's first-seen ranking
	// Priming takes about a second, so fewer repetitions suffice.
	for i := 0; i < min(cfg.setups, 3); i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFabric(); err != nil {
			return nil, err
		}
		gen = newFabricGen(cfg.seed)
		for _, req := range gen.primeSet() {
			ranking, _, err := sweep(req, cfg.workers, f.ring)
			if err != nil {
				f.close()
				return nil, err
			}
			first[req] = rankingDigest(ranking, req.TopK, true)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	defer f.close()

	tc := &timedCache{inner: f.ring, rec: cfg.rec}
	var traced []sweepOp
	frames0, retries0 := cachewire.Frames(), cachewire.Retries()
	c := newClock(cfg.dur)
	for c.running() {
		req, fresh := gen.next()
		res.attempted++
		var id int
		t0 := time.Now()
		if cfg.rec != nil {
			// The root span is recorded after the sweep; reserve its id so
			// cache spans can name it as their parent.
			id = cfg.rec.add(0, res.attempted, "core", "sweep "+req.String(), 0, t0, 0)
		}
		tc.begin(id, res.attempted)
		ranking, sims, err := sweep(req, cfg.workers, tc)
		wall := time.Since(t0)
		if err != nil {
			res.fail("%s: %v", req, err)
			continue
		}
		cells := len(gridCells(req))
		res.record(c, wall, req.perturbed(), float64(cells))
		tc.mu.Lock()
		keys, hits, cw := tc.keys, tc.hits, tc.tt
		tc.mu.Unlock()
		switch {
		case len(ranking) == 0:
			res.fail("%s: empty ranking", req)
		case fresh:
			first[req] = rankingDigest(ranking, req.TopK, true)
		default:
			if rankingDigest(ranking, req.TopK, true) != first[req] {
				res.fail("%s: repeat ranking differs from its first-seen ranking", req)
			}
			if keys > 0 && hits == keys && sims != 0 {
				res.fail("%s: full-hit repeat issued %d simulations", req, sims)
			}
		}
		if cfg.rec != nil {
			cfg.rec.mu.Lock()
			cfg.rec.spans[id-1].Dur = wall
			cfg.rec.mu.Unlock()
			errRows, pruned := rankingStats(ranking)
			traced = append(traced, sweepOp{req: req, id: id, wall: wall, sims: sims,
				errRows: errRows, pruned: pruned, cells: cells, cw: cw})
		}
	}
	res.finish(c)
	if cfg.rec != nil {
		res.layers = sweepLayers(cfg, traced, tc)
		n := float64(len(traced))
		res.layers["cachewire.frames_per_op"] = ratio(float64(cachewire.Frames()-frames0), n)
		res.layers["cachewire.retries_per_op"] = ratio(float64(cachewire.Retries()-retries0), n)
		res.layers["cachewire.node_errors"] = float64(f.nodeErrors())
	}
	return res, nil
}

// callCosts are mean per-call times measured by replaying grid cells.
type callCosts struct {
	generate, lowerBound, simRun time.Duration
	nGen, nLB, nSim              int
}

// replayCells replays traced requests' grid cells through the public
// functions a sweep calls — sched.Generator.Generate, costmodel.LowerBound
// and costmodel.New + sim.Runner.Run — one call at a time, until budget
// runs out, and records each call as a span of the replay timeline.
func replayCells(rec *recorder, ops []sweepOp, budget time.Duration) callCosts {
	var cc callCosts
	gen, runner := sched.NewGenerator(), sim.NewRunner()
	start := time.Now()
	for _, o := range ops {
		if time.Since(start) > budget {
			break
		}
		cl, model, space, err := o.req.build(1)
		if err != nil {
			continue
		}
		wl := costmodel.Workload{Model: model, MicroRows: space.MicroRows}
		for _, c := range gridCells(o.req) {
			scheme, p, d := cellScheme(o.req, c), c[1], c[2]
			if o.req.TopK > 0 {
				t0 := time.Now()
				_, err := costmodel.LowerBound(wl, cl, p, d, space.B, scheme)
				dt := time.Since(t0)
				rec.add(0, -1, "costmodel", "LowerBound "+scheme, 1, t0, dt)
				if err == nil {
					cc.lowerBound += dt
					cc.nLB++
				}
			}
			t0 := time.Now()
			s, err := gen.Generate(scheme, p, space.B)
			dt := time.Since(t0)
			rec.add(0, -1, "sched", "Generate "+scheme, 2, t0, dt)
			if err != nil {
				continue
			}
			cc.generate += dt
			cc.nGen++
			t0 = time.Now()
			cost, err := costmodel.New(wl, cl, s)
			if err == nil {
				_, err = runner.RunFaults(s, cost, sim.DefaultOptions(), space.Faults)
			}
			dt = time.Since(t0)
			rec.add(0, -1, "sim", "Run "+scheme, 3, t0, dt)
			if err == nil {
				cc.simRun += dt
				cc.nSim++
			}
		}
	}
	return cc
}

func perCall(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// sweepLayers derives the sched, costmodel, sim, core and cachewire
// per-layer metrics of a traced tune pass. Per-call costs come from the
// replay; counts come from what each sweep produced (SimRuns delta,
// BoundPruned rows, grid size). A sweep generates one schedule per cell
// it simulates or rejects, so generates ≈ sims + error rows. The sweep's
// children run on cfg.workers goroutines, so the interval they cover is
// their summed time over the worker count; core.sweep_self_ms is the
// sweep's wall time minus that and minus its time in the cache tier.
func sweepLayers(cfg config, ops []sweepOp, tc *timedCache) map[string]float64 {
	cc := replayCells(cfg.rec, ops, cfg.dur/2)
	gen, lb, run := perCall(cc.generate, cc.nGen), perCall(cc.lowerBound, cc.nLB), perCall(cc.simRun, cc.nSim)
	var gens, lbs, sims, cells, pruned float64
	var self, wall, cw time.Duration
	for _, o := range ops {
		g := o.sims + int64(o.errRows)
		var l int64
		if o.req.TopK > 0 {
			l = int64(o.cells)
		}
		gens += float64(g)
		lbs += float64(l)
		sims += float64(o.sims)
		cells += float64(o.cells)
		pruned += float64(o.pruned)
		child := (time.Duration(g)*gen + time.Duration(l)*lb + time.Duration(o.sims)*run) / time.Duration(cfg.workers)
		s := o.wall - child - o.cw
		self += s
		wall += o.wall
		cw += o.cw
		// Attributed children, laid end to end inside the sweep's span.
		if o.id > 0 {
			sp := cfg.rec.spans[o.id-1]
			at := cfg.rec.t0.Add(sp.Start)
			for _, part := range []struct {
				cat string
				d   time.Duration
			}{{"sched", time.Duration(g) * gen / time.Duration(cfg.workers)},
				{"costmodel", time.Duration(l) * lb / time.Duration(cfg.workers)},
				{"sim", time.Duration(o.sims) * run / time.Duration(cfg.workers)}} {
				if part.d > 0 {
					cfg.rec.add(o.id, sp.Op, part.cat, part.cat+" (attributed)", 4, at, part.d)
					at = at.Add(part.d)
				}
			}
		}
	}
	n := float64(len(ops))
	m := map[string]float64{
		"sched.generate_us":            us(gen),
		"sched.generates_per_op":       ratio(gens, n),
		"costmodel.lowerbound_us":      us(lb),
		"costmodel.lowerbounds_per_op": ratio(lbs, n),
		"sim.run_us":                   us(run),
		"sim.runs_per_op":              ratio(sims, n),
		"core.sweep_self_ms":           ratio(ms(self), n),
		"core.cells_per_op":            ratio(cells, n),
		"core.bound_pruned_per_op":     ratio(pruned, n),
	}
	for k, v := range zeroLayers("cachewire", "runtime", "comm", "nn", "train") {
		m[k] = v
	}
	m["sim.idle_share_pred"] = 0
	m["core.replan_ms"], m["core.replan_sims"] = 0, 0
	if tc != nil {
		tc.mu.Lock()
		m["cachewire.multiget_us"] = us(perCall(tc.getT, tc.gets))
		m["cachewire.multiput_us"] = us(perCall(tc.putT, tc.puts))
		m["cachewire.hit_ratio"] = ratio(float64(tc.allHits), float64(tc.allKeys))
		tc.mu.Unlock()
		m["cachewire.share_of_op"] = ratio(float64(cw), float64(wall))
	}
	return m
}
