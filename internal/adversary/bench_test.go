package adversary

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDelayDraw prices one message delay from each policy des draws
// from, on des-crashk's traffic: 13 live senders to 128 peers, so
// HashDelay's per-pair ordinals span 1,664 channels.
func BenchmarkDelayDraw(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy sim.DelayPolicy
	}{
		{"random", NewRandomUnit(1000004)},
		{"hash", NewHashDelay(3, 0, 1)},
		{"scripted", NewScripted([]byte("des-crashk"))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.policy.MessageDelay(sim.PeerID(i%13), sim.PeerID(i%128), 0, 64)
			}
		})
	}
}
