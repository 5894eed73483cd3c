// Command charmrun launches a Charm application on the in-process runtime
// with a CCS control endpoint, the way the paper's launcher pod runs
// charmrun/mpirun with shrink/expand enabled (§3.1). An external controller
// (cmd/ccs, or the operator) can then shrink/expand the running job.
//
// Usage:
//
//	charmrun -app jacobi -pes 8 -grid 1024 -iters 2000 -ccs 127.0.0.1:7777
//	charmrun -app leanmd -pes 4 -cells 4x4x4 -iters 500
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
)

func main() {
	var (
		app     = flag.String("app", "jacobi", "jacobi | leanmd")
		pes     = flag.Int("pes", 4, "initial number of PEs")
		grid    = flag.String("grid", "1024", "jacobi grid dimension")
		cells   = flag.String("cells", "4x4x4", "leanmd cell grid, e.g. 4x4x8")
		atoms   = flag.Int("atoms", 32, "leanmd atoms per cell")
		iters   = flag.Int("iters", 1000, "iterations to run")
		lbEvery = flag.Int("lb", 10, "iterations between load-balance steps")
		ccsAddr = flag.String("ccs", "127.0.0.1:0", "CCS listen address")
	)
	flag.Parse()

	rt, err := charm.New(charm.Config{PEs: *pes})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	var runner *apps.Runner
	switch *app {
	case "jacobi":
		var n int
		if _, err := fmt.Sscanf(*grid, "%d", &n); err != nil {
			log.Fatalf("bad -grid %q: %v", *grid, err)
		}
		bx, by := apps.ChareGrid(4 * *pes)
		runner, err = apps.NewJacobiRunner(rt, n, bx, by)
	case "leanmd":
		var kx, ky, kz int
		if _, err := fmt.Sscanf(*cells, "%dx%dx%d", &kx, &ky, &kz); err != nil {
			log.Fatalf("bad -cells %q: %v", *cells, err)
		}
		runner, err = apps.NewLeanMDRunner(rt, kx, ky, kz, *atoms, 2025)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	runner.LBPeriod = *lbEvery

	h, err := rt.ServeCCS(charm.CCSOptions{Addr: *ccsAddr, Status: runner.Status})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("charmrun: %s on %d PEs, CCS at %s\n", *app, *pes, h.Addr())

	res, err := runner.Run(*iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("charmrun: done: %d iterations in %v (%.2f ms/iter steady state)\n",
		len(res.Iterations), res.Total, res.TimePerIteration().Seconds()*1e3)
	for _, ev := range res.Rescales {
		fmt.Printf("charmrun: rescaled %d->%d at iter %d (overhead %v)\n",
			ev.FromPEs, ev.ToPEs, ev.Iter, ev.Stats.Total)
	}
}
