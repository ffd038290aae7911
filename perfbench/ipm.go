package main

import "github.com/memlp/memlp"

// ipm-analog: one client runs EngineCrossbar (Algorithm 1, default options)
// on one reused Solver. Every op is a different m=24 LP, so every op
// reprograms the array and then iterates, settling once per iteration.
const (
	ipmM    = 24
	ipmPool = 192
)

func runIPM(cfg config) (*result, error) {
	pool, err := makePool(cfg.seed, ipmPool, ipmM, 0)
	if err != nil {
		return nil, err
	}
	return runPool(cfg, pool, func() (*memlp.Solver, error) { return memlp.NewSolver(memlp.EngineCrossbar) })
}
