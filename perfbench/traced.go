package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdhg"
	"github.com/memlp/memlp/internal/perf"
)

// The traced run. It is separate from the end-to-end runs, which carry no
// instrumentation: spans are recorded here, in the benchmark's own code,
// around calls into each layer's public functions, and kept as in-memory
// aggregates (calls and total host time per layer boundary).
//
// Every traced run reports every per-layer metric, so it runs a traced pass
// of each workload — the named one first — for a third of the run length
// each. The runtime.* metrics come from the named workload's pass.

// tracedPool is how many of the pool's problems the traced ipm-analog and
// pdhg-tiled passes cycle through. Each pass solves every one of them at
// least once, however short its share of the run, so a seed's traced run
// always covers the same inputs.
const tracedPool = 32

func runTraced(cfg config) (*result, error) {
	passes := []struct {
		name string
		run  func(config) (*result, error)
	}{{"ipm-analog", traceIPM}, {"pdhg-tiled", tracePDHG}, {"serve-coalesce", traceServe}}
	for i, p := range passes {
		if p.name == cfg.workload {
			passes[0], passes[i] = passes[i], passes[0]
		}
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	share := cfg.seconds / time.Duration(len(passes))
	for _, p := range passes {
		c := cfg
		c.seconds = share
		r, err := p.run(c)
		if err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", p.name, err)
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			if p.name == cfg.workload || !strings.HasPrefix(k, "runtime.") {
				total.Metrics[k] = v
			}
		}
	}
	return total, nil
}

// span aggregates the calls across one layer boundary.
type span struct {
	calls int64
	total time.Duration
}

// since closes a call that started at t0; use as defer s.since(time.Now()).
func (s *span) since(t0 time.Time) {
	s.calls++
	s.total += time.Since(t0)
}

func (s span) meanUS() float64 {
	if s.calls == 0 {
		return 0
	}
	return us(s.total) / float64(s.calls)
}

// fabricSpans times the crossbar layer as core drives it.
type fabricSpans struct {
	program span // Program
	update  span // UpdateRow, UpdateCellInPlace
	matvec  span // MatVec, MatVecResidual
	settle  span // Solve: the simulated analog settle
}

func (f *fabricSpans) total() time.Duration {
	return f.program.total + f.update.total + f.matvec.total + f.settle.total
}

// timedFabric is a timing decorator over one crossbar. Besides the Fabric
// methods it forwards every optional interface core type-asserts —
// NoiseEpocher, DeltaProgrammer, FaultReporter and Remapper — because a
// dropped one silently changes the program measured (delta programming off,
// no epoch rebasing, no recovery ladder). The traced run's self-check would
// also catch that as a difference from the untraced results.
type timedFabric struct {
	x *crossbar.Crossbar
	s *fabricSpans
}

var (
	_ core.Fabric          = (*timedFabric)(nil)
	_ core.NoiseEpocher    = (*timedFabric)(nil)
	_ core.DeltaProgrammer = (*timedFabric)(nil)
	_ core.FaultReporter   = (*timedFabric)(nil)
	_ core.Remapper        = (*timedFabric)(nil)
)

func (f *timedFabric) Program(a *linalg.Matrix) error {
	defer f.s.program.since(time.Now())
	return f.x.Program(a)
}

func (f *timedFabric) UpdateRow(i int, row linalg.Vector) error {
	defer f.s.update.since(time.Now())
	return f.x.UpdateRow(i, row)
}

func (f *timedFabric) UpdateCellInPlace(i, j int, value float64) error {
	defer f.s.update.since(time.Now())
	return f.x.UpdateCellInPlace(i, j, value)
}

func (f *timedFabric) MatVec(v linalg.Vector) (linalg.Vector, error) {
	defer f.s.matvec.since(time.Now())
	return f.x.MatVec(v)
}

func (f *timedFabric) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	defer f.s.matvec.since(time.Now())
	return f.x.MatVecResidual(base, v, factor)
}

func (f *timedFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	defer f.s.settle.since(time.Now())
	return f.x.Solve(b)
}

func (f *timedFabric) Counters() crossbar.Counters       { return f.x.Counters() }
func (f *timedFabric) SetNoiseEpoch(epoch int64)         { f.x.SetNoiseEpoch(epoch) }
func (f *timedFabric) SetDeltaProgramming(on bool)       { f.x.SetDeltaProgramming(on) }
func (f *timedFabric) FaultCensus() crossbar.FaultCensus { return f.x.FaultCensus() }
func (f *timedFabric) RemapAvoidingFaults() bool         { return f.x.RemapAvoidingFaults() }

// timedFactory wraps every fabric the solver builds in a timedFabric.
func timedFactory(cfg crossbar.Config, s *fabricSpans) core.FabricFactory {
	build := core.SingleCrossbarFactory(cfg)
	return func(size int) (core.Fabric, error) {
		fab, err := build(size)
		if err != nil {
			return nil, err
		}
		x, ok := fab.(*crossbar.Crossbar)
		if !ok {
			return nil, fmt.Errorf("single-crossbar factory built a %T", fab)
		}
		return &timedFabric{x: x, s: s}, nil
	}
}

// crossbarDefaults is the per-array configuration memlp.NewSolver resolves
// from default options: delta-programming on at the 8-bit I/O precision and
// nothing else set. The traced passes rebuild the engines from it; their
// self-checks fail if it drifts from the public path.
var crossbarDefaults = crossbar.Config{DeltaWriteBits: 8}

// hardware prices fabric counters the way memlp.Solution.Hardware does.
func hardware(c crossbar.Counters, extra perf.Estimate) memlp.HardwareEstimate {
	est := perf.CrossbarCost(c, memristor.DefaultTiming()).Add(extra)
	return memlp.HardwareEstimate{
		Latency:      est.Latency,
		EnergyJoules: est.Energy,
		CellWrites:   c.CellWrites,
		AnalogOps:    c.MatVecOps + c.SolveOps,
		Conversions:  c.IOConversions,
		CellsSkipped: c.CellSkips,
	}
}

// traceIPM is the traced ipm-analog pass: the same Algorithm 1 solver the
// public EngineCrossbar handle builds, constructed through a FabricFactory
// that wraps the real crossbar in timedFabric. Each op first solves its
// problem untraced through the public API (outside every span), then traced,
// and the two must agree on status, iterations, objective bits and every
// hardware counter.
func traceIPM(cfg config) (*result, error) {
	pool, err := makePool(cfg.seed, tracedPool, ipmM, 0)
	if err != nil {
		return nil, err
	}
	untraced, err := memlp.NewSolver(memlp.EngineCrossbar)
	if err != nil {
		return nil, err
	}
	var spans fabricSpans
	timing := memristor.DefaultTiming()
	traced, err := core.NewSolver(core.Options{
		Fabric: timedFactory(crossbarDefaults, &spans),
		Alpha:  1.05, // memlp's default without variation
		EnergyModel: func(c crossbar.Counters) float64 {
			return perf.CrossbarCost(c, timing).Energy
		},
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	var (
		t                    tally
		solveTime            time.Duration
		ctr                  crossbar.Counters
		iters, attempts, ops int
	)
	ph := beginPhase()
	for ; ph.more(ops, tracedPool, cfg.seconds); ops++ {
		i := ops % tracedPool
		pp := pool[i]
		sol, err := untraced.Solve(ctx, pp.pub)
		if err != nil {
			return nil, fmt.Errorf("untraced solve: %w", err)
		}
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: ipmM, Seed: pp.seed})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := traced.SolveContext(ctx, p)
		solveTime += time.Since(t0)
		if err != nil {
			t.add(i, false, false)
			continue
		}
		ctr = ctr.Add(res.Counters)
		iters += res.Iterations
		attempts++
		if d := res.Diagnostics; d != nil {
			attempts += d.Attempts - 1
		}
		got := outcome{status: memlp.Status(res.Status), iters: res.Iterations, obj: math.Float64bits(res.Objective), hw: hardware(res.Counters, perf.Estimate{})}
		if got != outcomeOf(sol) {
			t.add(i, false, true)
			continue
		}
		ok, wrong := check(got.status == memlp.StatusOptimal, res.Objective, pp.ref)
		t.add(i, ok, wrong)
	}
	ph.end()
	n := float64(ops)
	written, skipped := float64(ctr.CellWrites), float64(ctr.CellSkips)
	ms := map[string]metric{
		"crossbar.settle_us":            {spans.settle.meanUS(), "us"},
		"crossbar.settle_share":         {spans.settle.total.Seconds() / solveTime.Seconds(), "ratio"},
		"crossbar.settles_per_op":       {float64(spans.settle.calls) / n, "count"},
		"crossbar.matvec_us":            {spans.matvec.meanUS(), "us"},
		"crossbar.matvecs_per_op":       {float64(spans.matvec.calls) / n, "count"},
		"crossbar.update_us":            {spans.update.meanUS(), "us"},
		"crossbar.updates_per_op":       {float64(spans.update.calls) / n, "count"},
		"crossbar.program_us":           {spans.program.meanUS(), "us"},
		"crossbar.programs_per_op":      {float64(spans.program.calls) / n, "count"},
		"crossbar.cells_written_per_op": {written / n, "count"},
		"crossbar.cells_skipped_per_op": {skipped / n, "count"},
		"crossbar.skip_ratio":           {skipped / (written + skipped), "ratio"},
		"crossbar.conversions_per_op":   {float64(ctr.IOConversions) / n, "count"},
		"crossbar.analog_ops_per_op":    {float64(ctr.MatVecOps+ctr.SolveOps) / n, "count"},
		"core.iters_per_op":             {float64(iters) / n, "count"},
		"core.self_us_per_iter":         {us(solveTime-spans.total()) / float64(iters), "us"},
		"core.attempts_per_op":          {float64(attempts) / n, "count"},
	}
	for k, v := range ph.runtimeMetrics(ops) {
		ms[k] = v
	}
	return t.result(ms), nil
}

// pdhgSolver builds the tiled PDHG engine the way memlp.NewSolver does for
// EnginePDHG with WithNoC("mesh", pdhgTile) and WithTiles(grid).
func pdhgSolver(grid int) (*pdhg.Solver, noc.Config, error) {
	ncfg := noc.Config{Topology: noc.Mesh, TileSize: pdhgTile}
	probe, err := noc.NewRouter(ncfg, 1, 1)
	if err != nil {
		return nil, noc.Config{}, err
	}
	timing := memristor.DefaultTiming()
	s, err := pdhg.New(
		pdhg.WithNoC(ncfg),
		pdhg.WithCrossbar(crossbarDefaults),
		pdhg.WithGrid(grid),
		pdhg.WithEnergyModel(func(c crossbar.Counters) float64 { return perf.CrossbarCost(c, timing).Energy }),
	)
	return s, probe.Config(), err
}

// samePDHG reports whether two PDHG results are bit-identical.
func samePDHG(a, b *pdhg.Result) bool {
	return a.Status == b.Status && a.Iterations == b.Iterations &&
		math.Float64bits(a.Objective) == math.Float64bits(b.Objective) &&
		sameBits(a.X, b.X) && sameBits(a.Y, b.Y) &&
		a.Restarts == b.Restarts && a.TilesRefreshed == b.TilesRefreshed &&
		a.Counters == b.Counters && a.NoC == b.NoC &&
		math.Float64bits(a.EnergyJoules) == math.Float64bits(b.EnergyJoules)
}

func sameBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tracePDHG is the traced pdhg-tiled pass. Each op solves its problem
// untraced through the public API, then in-package at worker grid 1 and at
// grid 2 (the workload's). The grid-1 and grid-2 results must be
// bit-identical, and the grid-2 result must match the public one; the time
// difference between the two grids is the sweep-worker overhead. A replay of
// crossbar.New, Program and MatVec on the first problem's 8×8 tiles times
// the array layer the sweeps drive.
func tracePDHG(cfg config) (*result, error) {
	pool, err := makePool(cfg.seed, tracedPool, pdhgM, pdhgN)
	if err != nil {
		return nil, err
	}
	untraced, err := memlp.NewSolver(memlp.EnginePDHG, pdhgOptions(pdhgGrid)...)
	if err != nil {
		return nil, err
	}
	grid1, _, err := pdhgSolver(1)
	if err != nil {
		return nil, err
	}
	grid2, ncfg, err := pdhgSolver(pdhgGrid)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	var (
		t                    tally
		time1, time2         time.Duration
		iters, restarts, ops int
		refreshed, hops      int64
		nocLatency           time.Duration
	)
	ph := beginPhase()
	for ; ph.more(ops, tracedPool, cfg.seconds); ops++ {
		i := ops % tracedPool
		pp := pool[i]
		sol, err := untraced.Solve(ctx, pp.pub)
		if err != nil {
			return nil, fmt.Errorf("untraced solve: %w", err)
		}
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: pdhgM, Variables: pdhgN, Seed: pp.seed})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r1, err1 := grid1.SolveContext(ctx, p)
		time1 += time.Since(t0)
		t0 = time.Now()
		r2, err2 := grid2.SolveContext(ctx, p)
		time2 += time.Since(t0)
		if err1 != nil || err2 != nil {
			t.add(i, false, false)
			continue
		}
		nest := perf.NoCCost(r2.NoC, ncfg)
		iters += r2.Iterations
		restarts += r2.Restarts
		refreshed += r2.TilesRefreshed
		hops += r2.NoC.ElementHops
		nocLatency += nest.Latency
		got := outcome{status: memlp.Status(r2.Status), iters: r2.Iterations, obj: math.Float64bits(r2.Objective), hw: hardware(r2.Counters, nest)}
		if !samePDHG(r1, r2) || got != outcomeOf(sol) {
			t.add(i, false, true)
			continue
		}
		ok, wrong := check(got.status == memlp.StatusOptimal, r2.Objective, pp.ref)
		t.add(i, ok, wrong)
	}
	ph.end()

	first, err := lp.GenerateFeasible(lp.GenConfig{Constraints: pdhgM, Variables: pdhgN, Seed: pool[0].seed})
	if err != nil {
		return nil, err
	}
	newSpan, programSpan, matvecSpan, err := tileReplay(first.A)
	if err != nil {
		return nil, err
	}
	n := float64(ops)
	ms := map[string]metric{
		"pdhg.iters_per_op":              {float64(iters) / n, "count"},
		"pdhg.restarts_per_op":           {float64(restarts) / n, "count"},
		"pdhg.tiles_refreshed_per_op":    {float64(refreshed) / n, "count"},
		"pdhg.us_per_iter":               {us(time2) / float64(iters), "us"},
		"pdhg.tile_new_us":               {newSpan.meanUS(), "us"},
		"pdhg.tile_program_us":           {programSpan.meanUS(), "us"},
		"pdhg.tile_matvec_us":            {matvecSpan.meanUS(), "us"},
		"pdhg.grid_overhead_us_per_iter": {us(time2-time1) / float64(iters), "us"},
		"noc.hops_per_op":                {float64(hops) / n, "count"},
		"noc.hw_us_per_op":               {us(nocLatency) / n, "us"},
	}
	for k, v := range ph.runtimeMetrics(ops) {
		ms[k] = v
	}
	return t.result(ms), nil
}

// tileReplayMatVecs is how many mat-vecs the replay times per tile.
const tileReplayMatVecs = 16

// tileReplay builds the four crossbars of every pdhgTile×pdhgTile block of
// a the way the PDHG fabric does (differential A⁺/A⁻ and their transposes,
// one noise epoch per block and slot), timing crossbar.New and Program,
// then times MatVec on each.
func tileReplay(a *linalg.Matrix) (newSpan, programSpan, matvecSpan span, err error) {
	r := rand.New(rand.NewSource(1))
	t := pdhgTile
	cfg := crossbarDefaults
	cfg.Size = t
	bRows, bCols := (a.Rows()+t-1)/t, (a.Cols()+t-1)/t
	for br := 0; br < bRows; br++ {
		for bc := 0; bc < bCols; bc++ {
			rows, cols := min(t, a.Rows()-br*t), min(t, a.Cols()-bc*t)
			parts := [4]*linalg.Matrix{
				linalg.NewMatrix(rows, cols), linalg.NewMatrix(rows, cols),
				linalg.NewMatrix(cols, rows), linalg.NewMatrix(cols, rows),
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					v := a.At(br*t+i, bc*t+j)
					if v > 0 {
						parts[0].Set(i, j, v)
						parts[2].Set(j, i, v)
					} else if v < 0 {
						parts[1].Set(i, j, -v)
						parts[3].Set(j, i, -v)
					}
				}
			}
			for slot, target := range parts {
				t0 := time.Now()
				xb, err := crossbar.New(cfg)
				newSpan.since(t0)
				if err != nil {
					return span{}, span{}, span{}, err
				}
				xb.SetNoiseEpoch(int64((br*bCols+bc)*len(parts) + slot))
				t0 = time.Now()
				err = xb.Program(target)
				programSpan.since(t0)
				if err != nil {
					return span{}, span{}, span{}, err
				}
				v := linalg.NewVector(target.Cols())
				for k := range v {
					v[k] = r.Float64()
				}
				for k := 0; k < tileReplayMatVecs; k++ {
					t0 = time.Now()
					_, err = xb.MatVec(v)
					matvecSpan.since(t0)
					if err != nil {
						return span{}, span{}, span{}, err
					}
				}
			}
		}
	}
	return newSpan, programSpan, matvecSpan, nil
}

// traceServe is the traced serve-coalesce pass: the workload itself, plus
// the server's /metrics deltas over the timed phase and the split of each
// request's client latency into solve time (the response's wall_ns) and
// serving overhead.
func traceServe(cfg config) (*result, error) {
	sess, err := runServeSession(cfg, true)
	if err != nil {
		return nil, err
	}
	var overhead, solve []time.Duration
	coalesced, batchSizes := 0, 0
	for _, op := range sess.ops {
		solve = append(solve, time.Duration(op.wallNS))
		overhead = append(overhead, op.latency-time.Duration(op.wallNS))
		if op.coalesced {
			coalesced++
		}
		batchSizes += op.batch
	}
	n := float64(len(sess.ops))
	busy := sess.metrics["memlp_shard_busy_seconds_total"]
	ms := map[string]metric{
		"serve.overhead_ms_p50": {percentileMS(overhead, 0.5), "ms"},
		"serve.solve_ms_p50":    {percentileMS(solve, 0.5), "ms"},
		"serve.coalesce_rate":   {float64(coalesced) / n, "ratio"},
		"serve.mean_batch":      {float64(batchSizes) / n, "count"},
		"serve.warm_hit_rate":   {sess.metrics["memlp_serve_warm_starts_total"] / n, "ratio"},
		"serve.rejected_frac":   {sess.metrics["memlp_serve_rejected_total"] / n, "ratio"},
		"core.shard_busy_share": {busy / (sess.ph.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"},
	}
	for k, v := range sess.ph.runtimeMetrics(len(sess.ops)) {
		ms[k] = v
	}
	return sess.t.result(ms), nil
}
