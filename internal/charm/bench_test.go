package charm

import (
	"fmt"
	"testing"

	"elastichpc/internal/lb"
	"elastichpc/internal/pup"
)

// benchChare carries a configurable payload so migration and checkpoint
// benchmarks can sweep state size.
type benchChare struct {
	Data []float64
}

func (c *benchChare) Pup(p *pup.PUP) { p.Float64s(&c.Data) }

const benchEpNop = 0

func init() {
	RegisterType("bench.chare", func() Chare { return &benchChare{} }, []Entry{
		{Name: "nop", Fn: func(obj Chare, ctx *Ctx, data []byte) {}},
		{Name: "contribute", Fn: func(obj Chare, ctx *Ctx, data []byte) {
			ctx.Contribute([]float64{1}, ReduceSum)
		}},
	})
}

// BenchmarkMessageDelivery measures point-to-point entry-method invocation
// throughput across PEs.
func BenchmarkMessageDelivery(b *testing.B) {
	rt, err := New(Config{PEs: 4, RestartLatency: ZeroRestartLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	aid, err := rt.CreateArray("bench.chare", 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(aid, i%64, benchEpNop, nil)
	}
	rt.quiesceWait()
}

// BenchmarkBroadcastReduction measures a full broadcast + reduction round,
// the runtime's per-iteration synchronization cost.
func BenchmarkBroadcastReduction(b *testing.B) {
	rt, err := New(Config{PEs: 4, RestartLatency: ZeroRestartLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	aid, err := rt.CreateArray("bench.chare", 64)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{}, 1)
	rt.SetReductionClient(aid, func([]float64) { done <- struct{}{} })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Broadcast(aid, 1, nil)
		<-done
	}
}

// BenchmarkRescaleByState sweeps checkpoint state size through a full
// shrink/expand cycle — the runtime-level analogue of Figure 5c.
func BenchmarkRescaleByState(b *testing.B) {
	for _, kb := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("state=%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt, err := New(Config{PEs: 8, RestartLatency: ZeroRestartLatency})
				if err != nil {
					b.Fatal(err)
				}
				aid, err := rt.CreateArray("bench.chare", 32)
				if err != nil {
					b.Fatal(err)
				}
				// Give every chare kb kilobytes of state.
				rt.mu.Lock()
				inc := rt.inc
				rt.mu.Unlock()
				inc.pauseAll()
				for _, p := range inc.pes {
					for id := range p.chares {
						p.chares[id] = &benchChare{Data: make([]float64, kb*128)}
					}
				}
				inc.resumeAll()
				_ = aid
				b.StartTimer()
				if err := rt.RescaleTo(4); err != nil {
					b.Fatal(err)
				}
				if err := rt.RescaleTo(8); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rt.Shutdown()
			}
		})
	}
}

// BenchmarkMigration measures single-object pack/move/unpack cost during an
// in-run Balance pass.
func BenchmarkMigration(b *testing.B) {
	rt, err := New(Config{PEs: 2, RestartLatency: ZeroRestartLatency, RunLB: lb.Rotate{}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	if _, err := rt.CreateArray("bench.chare", 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate reassigns round-robin, forcing migrations every pass.
		if _, err := rt.Balance(); err != nil {
			b.Fatal(err)
		}
	}
}
