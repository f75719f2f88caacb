package benchkit

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sgb-db/sgb/internal/core"
	"github.com/sgb-db/sgb/internal/geom"
)

// Beyond the paper: the parallel-scaling experiment for the SGB-Any
// partition → evaluate → merge pipeline. The workload is the Fig9a
// uniform sweep point (ε = 0.5, L2) so the series land next to the
// Fig9/Fig10 reproductions; the parallel and sequential runs produce
// bit-identical groupings at every worker count, so the table also
// prints the group count as a cross-check. SGB-All has no parallel
// pipeline (its arbitration is order-sensitive and always runs the
// sequential loop), so it has no series here.

var workerSweep = []int{1, 2, 4, 8}

func init() {
	register(Experiment{
		ID:    "scaling",
		Title: "parallel scaling, workers ∈ {1,2,4,8} (SGB-Any, ε-Grid)",
		Expect: "SGB-Any speedup growing with the worker count up to the machine's core " +
			"count: components are order-independent, so only the ε-tile planning " +
			"and the Union-Find merge stay sequential",
		Run: runScaling,
	})
}

func runScaling(cfg Config) error {
	e, _ := Find("scaling")
	header(cfg, e)
	n := cfg.scaled(8000)
	pts := uniformPoints(n, 10, cfg.Seed+3)
	const eps = 0.5
	fmt.Fprintf(cfg.Out, "n = %d uniform points, ε = %.1f, L2, ε-Grid strategy\n\n", n, eps)

	// The headline table holds only worker counts the machine can
	// actually schedule: oversubscribed rows (w > GOMAXPROCS) time-slice
	// one core and measure sharding overhead, not scaling, so they'd
	// poison speedup comparisons across machines. They are still
	// measured (and recorded, flagged, in baselines) but print
	// separately below the warning.
	gmp := runtime.GOMAXPROCS(0)
	t := newTable(cfg.Out, "workers", "SGB-Any(ms)", "speedup", "groups")
	var over *table
	var excluded []int
	var base time.Duration
	for _, w := range workerSweep {
		d, g, err := timeParallel(pts, eps, w)
		if err != nil {
			return err
		}
		if w == 1 {
			base = d
		}
		dst := t
		if w > gmp {
			if over == nil {
				over = newTable(cfg.Out, "workers", "SGB-Any(ms)", "speedup", "groups")
			}
			excluded = append(excluded, w)
			dst = over
		}
		dst.row(w, ms(d), speedup(base, d), g)
	}
	t.flush()
	if over != nil {
		fmt.Fprintf(cfg.Out, "\nwarning: workers %v exceed GOMAXPROCS=%d — oversubscribed, excluded from the\n"+
			"headline table above (they measure time-slicing overhead, not scaling):\n\n", excluded, gmp)
		over.flush()
	}
	return nil
}

// timeParallel measures one SGB-Any evaluation at an explicit worker
// count (1 forces the sequential path, so the speedup column is against
// the true sequential baseline, not a one-worker parallel run).
func timeParallel(pts []geom.Point, eps float64, workers int) (time.Duration, int, error) {
	opt := core.Options{
		Metric:      geom.L2,
		Eps:         eps,
		Algorithm:   core.GridIndex,
		Parallelism: workers,
	}
	start := time.Now()
	res, err := core.SGBAny(pts, opt)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), res.NumGroups(), nil
}
