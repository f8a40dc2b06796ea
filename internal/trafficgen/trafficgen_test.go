package trafficgen

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

func TestAnonymizePreservesPrefix(t *testing.T) {
	salt := uint64(0xfeed)
	ip := dataplane.MustIP4("172.16.42.9")
	anon := AnonymizeIP(ip, salt)
	if anon>>16 != ip>>16 {
		t.Fatalf("prefix not preserved: %s -> %s", ip, anon)
	}
	// Deterministic (consistent across packets of a flow).
	if AnonymizeIP(ip, salt) != anon {
		t.Fatal("anonymization must be deterministic")
	}
	// Salt-dependent (one-way without the salt).
	if AnonymizeIP(ip, salt+1) == anon {
		t.Fatal("different salts should give different mappings")
	}
}

func TestCampusDeterminism(t *testing.T) {
	a, b := NewCampus(CampusConfig{Seed: 7}), NewCampus(CampusConfig{Seed: 7})
	for i := 0; i < 1000; i++ {
		pa, pb := a.Next(), b.Next()
		if pa != pb {
			t.Fatalf("packet %d diverged: %+v vs %+v", i, pa, pb)
		}
	}
}

func TestCampusRate(t *testing.T) {
	g := NewCampus(CampusConfig{Seed: 1})
	var total netsim.Time
	const n = 200_000
	for i := 0; i < n; i++ {
		total += g.Next().Gap
	}
	gotPPS := float64(n) / total.Seconds()
	if gotPPS < 330_000 || gotPPS > 370_000 {
		t.Fatalf("offered load %.0f pps, want ≈350K", gotPPS)
	}
}

func TestCampusPacketsAreWellFormed(t *testing.T) {
	g := NewCampus(CampusConfig{Seed: 3})
	sawTCP, sawUDP := false, false
	for i := 0; i < 500; i++ {
		p := g.Next()
		wire := p.Decode().Serialize()
		if err := dataplane.ParseInto(new(dataplane.Decoded), wire); err != nil {
			t.Fatalf("packet %d does not parse: %v", i, err)
		}
		if p.Proto == dataplane.ProtoTCP {
			sawTCP = true
		}
		if p.Proto == dataplane.ProtoUDP {
			sawUDP = true
		}
		if p.Size < 64 || p.Size > 1500 {
			t.Fatalf("packet size %d out of mix", p.Size)
		}
		// All sources come from the tapped /16s.
		if p.Src>>16 != 0xac10 && p.Src>>16 != 0xac11 {
			t.Fatalf("source %s outside tapped subnets", p.Src)
		}
	}
	if !sawTCP || !sawUDP {
		t.Fatal("mix should include both TCP and UDP")
	}
}

func TestUDPLoadRate(t *testing.T) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	l := &UDPLoad{
		Host: ls.Host(0, 0), Dst: ls.Host(1, 0).IP,
		Bps: 1_000_000_000, PktSize: 1250, Sport: 9, Dport: 9,
	}
	l.Start(sim, 10*netsim.Millisecond)
	sim.RunAll()
	// 1 Gb/s at 1250 B = 100 kpps → 1000 packets in 10 ms.
	if l.Sent < 990 || l.Sent > 1010 {
		t.Fatalf("sent %d packets, want ≈1000", l.Sent)
	}
	if ls.Host(1, 0).RxUDP == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPingerCadence(t *testing.T) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	h := ls.Host(0, 0)
	StartPinger(sim, h, ls.Host(1, 0).IP, 200*netsim.Millisecond, 2*netsim.Second)
	sim.RunAll()
	if n := len(h.RTTs); n != 10 {
		t.Fatalf("got %d RTT samples in 2s at 0.2s cadence, want 10", n)
	}
}

func TestUDPLoadPoisson(t *testing.T) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	l := &UDPLoad{
		Host: ls.Host(0, 0), Dst: ls.Host(1, 0).IP,
		Bps: 1_000_000_000, PktSize: 1250, Sport: 9, Dport: 9,
		Poisson: true, Seed: 3,
	}
	l.Start(sim, 20*netsim.Millisecond)
	sim.RunAll()
	// Mean rate preserved: 100 kpps x 20 ms = 2000 +- sqrt-ish noise.
	if l.Sent < 1700 || l.Sent > 2300 {
		t.Fatalf("poisson stream sent %d packets, want ≈2000", l.Sent)
	}
	// Same seed, same sequence.
	sim2 := netsim.NewSimulator()
	ls2 := netsim.BuildLeafSpine(sim2, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	l2 := &UDPLoad{Host: ls2.Host(0, 0), Dst: ls2.Host(1, 0).IP, Bps: 1_000_000_000, PktSize: 1250, Sport: 9, Dport: 9, Poisson: true, Seed: 3}
	l2.Start(sim2, 20*netsim.Millisecond)
	sim2.RunAll()
	if l2.Sent != l.Sent {
		t.Fatalf("poisson stream not deterministic: %d vs %d", l.Sent, l2.Sent)
	}
}
