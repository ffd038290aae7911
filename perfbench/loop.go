package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/memlp/memlp"
)

const (
	// setupReps is how many times a run performs its defined set-up; setup_s
	// is the median.
	setupReps = 5
	// warmOps is how many ops a set-up runs after building its handle or
	// server: they program the fabrics and size the workspaces. Several, so
	// set-up time does not hinge on one problem's iteration count.
	warmOps = 4
	// minOps keeps at least ten latency samples above p90 in every run.
	minOps = 100
	// chunkOps is the throughput window: ops_per_s is the median, over
	// consecutive windows of this many completed ops, of ops per second.
	chunkOps = 24
)

// poolProblem is one generated input with its digital reference objective.
type poolProblem struct {
	pub  *memlp.Problem
	seed int64 // generator seed, to rebuild the same instance in-package
	ref  float64
}

// makePool draws n m×cols feasible LPs from seed and solves each with the
// digital EnginePDIPReduced reference. Called before set-up and the timed
// phase, so neither pays for it.
func makePool(seed int64, n, m, cols int) ([]poolProblem, error) {
	r := rand.New(rand.NewSource(seed))
	pool := make([]poolProblem, n)
	for i := range pool {
		s := r.Int63()
		p, err := memlp.GenerateFeasible(m, cols, s)
		if err != nil {
			return nil, err
		}
		ref, err := reference(p)
		if err != nil {
			return nil, fmt.Errorf("problem %d: %w", i, err)
		}
		pool[i] = poolProblem{pub: p, seed: s, ref: ref}
	}
	return pool, nil
}

// reference solves p digitally with EnginePDIPReduced and demands
// optimality: the workloads draw only feasible, bounded problems.
func reference(p *memlp.Problem) (float64, error) {
	sol, err := memlp.Solve(p, memlp.EnginePDIPReduced)
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	if sol.Status != memlp.StatusOptimal {
		return 0, fmt.Errorf("reference solve: status %v", sol.Status)
	}
	return sol.Objective, nil
}

// setupMedian performs the defined set-up setupReps times and returns the
// median host time in seconds. Only the last set-up's state is kept; undo,
// when non-nil, releases an earlier one before the next starts.
func setupMedian(setup func() error, undo func()) (float64, error) {
	times := make([]time.Duration, setupReps)
	for i := range times {
		if i > 0 && undo != nil {
			undo()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(t0)
	}
	return medianSeconds(times), nil
}

// phase measures one closed-loop timed phase: per-op host latency, the
// completion times behind the throughput windows, and heap allocation.
// Recording is safe from several client goroutines.
type phase struct {
	start   time.Time
	elapsed time.Duration // set by end
	// mem and after bracket the phase's heap and GC statistics.
	mem, after runtime.MemStats

	mu   sync.Mutex
	lat  []time.Duration //memlp:guardedby mu
	done []time.Duration //memlp:guardedby mu — completion offsets from start
}

// beginPhase starts a timed phase from a collected heap, so every run's
// allocation and GC figures start from the same state.
func beginPhase() *phase {
	p := &phase{}
	runtime.GC()
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	return p
}

// record adds one op issued at t0 and finished at t1; only verified ops
// count towards throughput. It returns the number of ops recorded so far.
func (p *phase) record(t0, t1 time.Time, verified bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lat = append(p.lat, t1.Sub(t0))
	if verified {
		p.done = append(p.done, t1.Sub(p.start))
	}
	return len(p.lat)
}

// more reports whether a client should issue another op: until the run
// length has passed and at least min ops are done.
func (p *phase) more(done, min int, d time.Duration) bool {
	return done < min || time.Since(p.start) < d
}

// end closes the phase and returns its host metrics.
func (p *phase) end() map[string]metric {
	p.elapsed = time.Since(p.start)
	runtime.ReadMemStats(&p.after)
	p.mu.Lock()
	defer p.mu.Unlock()
	ops := len(p.lat)
	return map[string]metric{
		"ops_per_s":       {throughput(p.done, p.elapsed), "1/s"},
		"latency_ms_p50":  {percentileMS(p.lat, 0.5), "ms"},
		"latency_ms_p90":  {percentileMS(p.lat, 0.9), "ms"},
		"alloc_kb_per_op": {float64(p.after.TotalAlloc-p.mem.TotalAlloc) / 1024 / float64(ops), "KB"},
	}
}

// throughput is the median over consecutive chunkOps-op windows of the
// verified ops' completion times (offsets from the phase start) of ops per
// host second: a run-length mean would let a few seconds of host contention
// move the whole figure.
func throughput(done []time.Duration, elapsed time.Duration) float64 {
	done = append([]time.Duration(nil), done...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var rates []float64
	prev := time.Duration(0)
	for i := chunkOps - 1; i < len(done); i += chunkOps {
		rates = append(rates, chunkOps/(done[i]-prev).Seconds())
		prev = done[i]
	}
	if len(rates) == 0 { // fewer than chunkOps verified ops
		return float64(len(done)) / elapsed.Seconds()
	}
	sort.Float64s(rates)
	if n := len(rates); n%2 == 0 {
		return (rates[n/2-1] + rates[n/2]) / 2
	}
	return rates[len(rates)/2]
}

// runtimeMetrics returns the phase's garbage-collector cost per op: cycles
// and stop-the-world pause. Call after end.
func (p *phase) runtimeMetrics(ops int) map[string]metric {
	n := float64(max(ops, 1))
	return map[string]metric{
		"runtime.gc_per_op":   {float64(p.after.NumGC-p.mem.NumGC) / n, "count"},
		"runtime.gc_pause_ms": {ms(time.Duration(p.after.PauseTotalNs-p.mem.PauseTotalNs)) / n, "ms"},
	}
}

// outcome is the part of a Solution that must repeat exactly: the same
// problem on the same deterministic configuration gives the same status,
// iterations, objective bits and modeled hardware counters.
type outcome struct {
	status memlp.Status
	iters  int
	obj    uint64
	hw     memlp.HardwareEstimate
}

func outcomeOf(sol *memlp.Solution) outcome {
	o := outcome{status: sol.Status, iters: sol.Iterations, obj: math.Float64bits(sol.Objective)}
	if sol.Hardware != nil {
		o.hw = *sol.Hardware
	}
	return o
}

// check classifies one op's output. An op succeeds when it returned status
// Optimal and an objective within objTol of the digital reference; anything
// else, like an op that returned an error, is a failed op. An Optimal status
// with an objective outside the tolerance is also a wrong output, which makes
// the whole run incorrect: the solver claimed an answer it did not have.
func check(optimal bool, obj, ref float64) (ok, wrong bool) {
	if !optimal {
		return false, false
	}
	if relErr(obj, ref) > objTol {
		return false, true
	}
	return true, false
}

// tally counts a run's verdicts per distinct input: attempted is how many
// distinct inputs the run solved, failed how many of them had at least one
// failed op. The loops cycle their inputs for as long as the run lasts, so
// per-op counts would scale with however many passes the host managed; per
// input, a seed reports the same figures on every run. Wrong outputs count
// per op and make the run incorrect.
type tally struct {
	seen, failed map[int]bool
	wrong        int
}

// add records one op on input, which identifies a distinct input of the run.
func (t *tally) add(input int, ok, wrong bool) {
	if t.seen == nil {
		t.seen, t.failed = map[int]bool{}, map[int]bool{}
	}
	t.seen[input] = true
	if !ok {
		t.failed[input] = true
	}
	if wrong {
		t.wrong++
	}
}

func (t *tally) result(ms map[string]metric) *result {
	return &result{Correct: t.wrong == 0, Attempted: len(t.seen), Failed: len(t.failed), Metrics: ms}
}

// modeled accumulates the modeled-hardware and accuracy columns.
type modeled struct {
	n                     int
	iters, hwNS, hwJ, err float64
}

func (m *modeled) add(iters int, hw time.Duration, joules, relErr float64) {
	m.n++
	m.iters += float64(iters)
	m.hwNS += float64(hw)
	m.hwJ += joules
	m.err += relErr
}

func (m *modeled) metrics(ms map[string]metric) {
	n := float64(max(m.n, 1))
	ms["iters_per_op"] = metric{m.iters / n, "count"}
	ms["hw_us_per_op"] = metric{m.hwNS / n / 1e3, "us"}
	ms["hw_uj_per_op"] = metric{m.hwJ / n * 1e6, "uJ"}
	ms["obj_rel_err_mean"] = metric{m.err / n, "ratio"}
}

// runPool runs a single-client workload: the defined set-up (build the
// handle, then solve the first warmOps pool problems) setupReps times, then
// the timed pool loop on the last handle.
func runPool(cfg config, pool []poolProblem, build func() (*memlp.Solver, error)) (*result, error) {
	ctx := context.Background()
	var s *memlp.Solver
	setup, err := setupMedian(func() error {
		var err error
		if s, err = build(); err != nil {
			return err
		}
		for _, pp := range pool[:warmOps] {
			if _, err := s.Solve(ctx, pp.pub); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res := poolLoop(cfg, pool, func(p *memlp.Problem) (*memlp.Solution, error) { return s.Solve(ctx, p) })
	res.Metrics["setup_s"] = metric{setup, "s"}
	return res, nil
}

// poolLoop is the closed loop shared by the single-client workloads: one
// client solves the pool round-robin, so consecutive ops are distinct
// problems. The loop runs at least one full pass; the modeled columns
// (iterations, hardware latency and energy, objective error) are taken over
// that first pass, so they repeat exactly for a seed however many ops the
// host manages. Every later op must reproduce its problem's first-pass
// outcome bit for bit: a difference is a wrong output, since the
// configuration is deterministic.
func poolLoop(cfg config, pool []poolProblem, solve func(*memlp.Problem) (*memlp.Solution, error)) *result {
	first := make([]outcome, len(pool))
	var mod modeled
	var t tally
	ph := beginPhase()
	ops := 0
	for ph.more(ops, max(len(pool), minOps), cfg.seconds) {
		i := ops % len(pool)
		pp := pool[i]
		t0 := time.Now()
		sol, err := solve(pp.pub)
		t1 := time.Now()
		ok, wrong := false, false
		if err == nil {
			ok, wrong = check(sol.Status == memlp.StatusOptimal, sol.Objective, pp.ref)
			o := outcomeOf(sol)
			switch {
			case ops < len(pool):
				first[i] = o
				if ok {
					mod.add(sol.Iterations, sol.Hardware.Latency, sol.Hardware.EnergyJoules, relErr(sol.Objective, pp.ref))
				}
			case o != first[i]:
				ok, wrong = false, true
			}
		}
		t.add(i, ok, wrong)
		ops = ph.record(t0, t1, ok)
	}
	ms := ph.end()
	mod.metrics(ms)
	return t.result(ms)
}
