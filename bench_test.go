// Package repro's top-level benchmark regenerates the paper's evaluation
// under `go test -bench`: BenchmarkExperiments/<ID>/<cell> runs one cell
// of one experiment of internal/experiments, at full size and seed 7 —
// the runs whose tables EXPERIMENTS.md holds — and reports the paper's
// complexity measures as custom metrics:
//
//	queryQ     — query complexity Q (max source bits per nonfaulty peer)
//	avgQ       — mean query bits per nonfaulty peer
//	msgs       — message complexity M (total nonfaulty messages)
//	vtime      — virtual time T (units of max network latency)
//
// Experiments without cells — the ones that are no des run (E7, E8, E10,
// A7) and the ones that build their runs inside the table (E3, A1, A2,
// A4–A6) — are timed whole, as BenchmarkExperiments/<ID>. Wall-clock ns/op
// measures the simulator, not the protocol — the paper's claims are about
// the custom metrics' shapes (see EXPERIMENTS.md).
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Config{Seed: 7}
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			if e.Cells == nil {
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			for j, c := range e.Cells(cfg) {
				b.Run(c.Name, func(b *testing.B) {
					b.ReportAllocs()
					var q, avgQ, msgs, vtime float64
					for i := 0; i < b.N; i++ {
						// A spec runs once: build a fresh one outside the timer.
						b.StopTimer()
						cell := e.Cells(cfg)[j]
						b.StartTimer()
						res, err := cell.Run()
						if err != nil {
							b.Fatal(err)
						}
						q += float64(res.Q)
						avgQ += res.AvgQ()
						msgs += float64(res.Msgs)
						vtime += res.Time
					}
					n := float64(b.N)
					b.ReportMetric(q/n, "queryQ")
					b.ReportMetric(avgQ/n, "avgQ")
					b.ReportMetric(msgs/n, "msgs")
					b.ReportMetric(vtime/n, "vtime")
				})
			}
		})
	}
}
