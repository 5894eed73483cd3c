// Jacobi2D live-rescale demo: run the heat-equation solver on the real
// message-driven runtime, then shrink and expand it mid-run through the CCS
// control socket — the paper's Figure 6 scenario, end to end, including the
// external-controller path.
//
//	go run ./examples/jacobi2d
package main

import (
	"fmt"
	"log"
	"time"

	"elastichpc/internal/apps"
	"elastichpc/internal/ccs"
	"elastichpc/internal/charm"
)

func main() {
	const (
		pes   = 8
		grid  = 512
		iters = 60
	)
	rt, err := charm.New(charm.Config{PEs: pes})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	// 4 chares per PE: overdecomposition enables load balancing and
	// rescaling (paper §2.1).
	app, err := apps.NewJacobiRunner(rt, grid, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	app.LBPeriod = 10

	// Expose the CCS endpoint an external scheduler would signal.
	ccsHandle, err := rt.ServeCCS(charm.CCSOptions{Addr: "127.0.0.1:0", Status: app.Status})
	if err != nil {
		log.Fatal(err)
	}
	defer ccsHandle.Close()
	fmt.Printf("solver running on %d PEs, CCS endpoint at %s\n", pes, ccsHandle.Addr())

	// External controller: shrink to half, later expand back.
	go func() {
		client, err := ccs.Dial(ccsHandle.Addr(), time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		if err := client.Shrink(pes / 2); err != nil {
			log.Fatalf("shrink: %v", err)
		}
		st, err := client.Query()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("controller: shrink acknowledged, app now on %d PEs at iteration %d\n",
			st.NumPEs, st.Iteration)
		if err := client.Expand(pes, nil); err != nil {
			log.Fatalf("expand: %v", err)
		}
		fmt.Printf("controller: expand acknowledged\n")
	}()

	res, err := app.Run(iters)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d iterations, final residual %.3e\n", len(res.Iterations), res.FinalValue)
	for _, ev := range res.Rescales {
		s := ev.Stats
		fmt.Printf("rescale %d->%d at iter %d: lb=%v ckpt=%v restart=%v restore=%v total=%v\n",
			ev.FromPEs, ev.ToPEs, ev.Iter,
			s.LoadBalance.Round(time.Microsecond), s.Checkpoint.Round(time.Microsecond),
			s.Restart.Round(time.Microsecond), s.Restore.Round(time.Microsecond),
			s.Total.Round(time.Microsecond))
	}
	// Per-10-iteration timing like Figure 6a.
	fmt.Println("\niter  PEs  time/10 iters")
	var acc time.Duration
	for i, it := range res.Iterations {
		acc += it.Elapsed
		if (i+1)%10 == 0 {
			fmt.Printf("%4d  %3d  %v\n", i+1, it.PEs, acc.Round(time.Microsecond))
			acc = 0
		}
	}
}
