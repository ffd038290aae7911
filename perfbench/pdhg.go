package main

import "github.com/memlp/memlp"

// pdhg-tiled: one client runs EnginePDHG on distinct 64×48 LPs tiled into
// 8×8 blocks on a mesh NoC (48 blocks) with a 2×2 sweep-worker grid. The
// path is mat-vec only: it never settles.
const (
	pdhgM, pdhgN = 64, 48
	pdhgTile     = 8
	pdhgGrid     = 2
	pdhgPool     = 192
)

func pdhgOptions(grid int) []memlp.Option {
	return []memlp.Option{memlp.WithNoC("mesh", pdhgTile), memlp.WithTiles(grid)}
}

func runPDHG(cfg config) (*result, error) {
	pool, err := makePool(cfg.seed, pdhgPool, pdhgM, pdhgN)
	if err != nil {
		return nil, err
	}
	return runPool(cfg, pool, func() (*memlp.Solver, error) {
		return memlp.NewSolver(memlp.EnginePDHG, pdhgOptions(pdhgGrid)...)
	})
}
