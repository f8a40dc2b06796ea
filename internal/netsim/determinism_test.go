package netsim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataplane"
)

// The determinism suite. Observable behavior — capture transcripts,
// counters, verdicts — is a pure function of the seed and topology, and
// two transcripts pin it byte for byte:
//
//   - testdata/campus_capture.golden, a 2×2 leaf-spine with every link
//     tapped;
//   - testdata/fattree_capture.golden, a k=8 fat-tree (80 switches, 128
//     hosts) with the pod-0 aggregation uplinks tapped.
//
// Regenerate with NETSIM_GOLDEN_UPDATE=1 only for a change meant to
// move them.

const (
	campusCaptureGolden  = "testdata/campus_capture.golden"
	fatTreeCaptureGolden = "testdata/fattree_capture.golden"
)

// checkGolden compares a transcript with its golden file, or rewrites
// the file under NETSIM_GOLDEN_UPDATE.
// tap records every frame delivered over l into c.
func tap(c *Capture, l *Link) { l.taps = append(l.taps, c) }

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("NETSIM_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with NETSIM_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("transcript diverged from %s\ngot %d bytes, want %d\n%s",
			path, len(got), len(want), firstDiff(got, string(want)))
	}
}

// campusCaptureScenario builds the 2×2 campus fabric with taps on every
// link, replays a deterministic multi-host traffic mix, and returns the
// full capture transcript plus the counter summary.
func campusCaptureScenario() string {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true,
	})
	cap := &Capture{}
	for _, leaf := range ls.Leaves {
		for s := range ls.Spines {
			tap(cap, leaf.Link(s+1))
		}
	}
	for l, leaf := range ls.Leaves {
		for h := range ls.Hosts[l] {
			tap(cap, leaf.Link(len(ls.Spines)+1+h))
		}
	}

	// A deterministic mix: every host talks across the fabric with
	// irregular spacing, varied sizes, and a few pings for the reverse
	// path.
	hosts := []*Host{ls.Host(0, 0), ls.Host(0, 1), ls.Host(1, 0), ls.Host(1, 1)}
	var at Time
	for i := 0; i < 160; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+2)%len(hosts)] // always the opposite leaf
		at += Time(3100 + 977*(i%7))
		i, plen := i, 64+(i%9)*100
		sim.At(at, func() {
			switch i % 3 {
			case 0:
				src.SendUDP(dst.IP, uint16(4000+i), 80, plen)
			case 1:
				// One PSH|ACK segment; the substrate keeps no
				// connection state.
				src.send(&dataplane.Decoded{
					Eth:     dataplane.Ethernet{Dst: src.GatewayMAC, Src: src.MAC, Type: dataplane.EtherTypeIPv4},
					HasIPv4: true,
					IPv4:    src.newIPv4(dst.IP, dataplane.ProtoTCP),
					HasTCP:  true,
					TCP:     dataplane.TCP{SrcPort: uint16(5000 + i), DstPort: 443, Flags: 0x18, Window: 65535},
					Payload: make([]byte, plen),
				})
			default:
				src.Ping(dst.IP, uint16(i))
			}
		})
	}
	sim.RunAll()

	out := cap.String()
	for _, sw := range ls.AllSwitches() {
		out += fmt.Sprintf("switch %s rx=%d tx=%d drop=%d err=%d\n",
			sw.Name, sw.RxFrames, sw.TxFrames, sw.Dropped, sw.ParseErrors)
	}
	for _, h := range hosts {
		out += fmt.Sprintf("host %s rx=%d udp=%d tcp=%d rtts=%d err=%d\n",
			h.Name, h.RxFrames, h.RxUDP, h.RxTCP, len(h.RTTs), h.ParseErrs)
	}
	for li, leaf := range ls.Leaves {
		for si := range ls.Spines {
			lk := leaf.Link(si + 1)
			out += fmt.Sprintf("up[%d][%d] frames=%d bytes=%d drops=%d/%d\n",
				li, si, lk.Frames, lk.Bytes, lk.DropsAB, lk.DropsBA)
		}
	}
	return out
}

func TestCampusCaptureMatchesSequentialGolden(t *testing.T) {
	checkGolden(t, campusCaptureGolden, campusCaptureScenario())
}

// fatTreeScenario drives all-to-all-ish traffic across a generated
// fat-tree and returns a transcript of per-switch/host/link counters
// plus a capture over the pod-0 aggregation uplinks.
func fatTreeScenario(k int) string {
	sim := NewSimulator()
	ft := BuildFatTree(sim, FatTreeConfig{K: k, WithRouting: true})
	half := k / 2
	cap := &Capture{}
	for _, agg := range ft.Agg[0] {
		for j := range half {
			tap(cap, agg.Link(half+1+j))
		}
	}

	// Cross-pod flows: every (pod, edge) pair sources traffic to a host
	// in a rotated pod, with varied sizes and irregular spacing.
	var at Time
	n := 0
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				src := ft.Hosts[p][e][h]
				dst := ft.Hosts[(p+1+h)%k][(e+1)%half][(h+1)%half]
				at += Time(1700 + 613*(n%11))
				n, plen := n, 64+(n%7)*150
				sim.At(at, func() {
					if n%4 == 3 {
						src.Ping(dst.IP, uint16(n))
					} else {
						src.SendUDP(dst.IP, uint16(7000+n), 80, plen)
					}
				})
				n++
			}
		}
	}
	sim.RunAll()

	out := cap.String()
	for _, sw := range ft.AllSwitches() {
		out += fmt.Sprintf("switch %s rx=%d tx=%d drop=%d err=%d\n",
			sw.Name, sw.RxFrames, sw.TxFrames, sw.Dropped, sw.ParseErrors)
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				hh := ft.Hosts[p][e][h]
				out += fmt.Sprintf("host %s rx=%d udp=%d rtts=%d err=%d\n",
					hh.Name, hh.RxFrames, hh.RxUDP, len(hh.RTTs), hh.ParseErrs)
			}
		}
	}
	for p, pod := range ft.Agg {
		for a, agg := range pod {
			for j := range half {
				lk := agg.Link(half + 1 + j)
				out += fmt.Sprintf("aggcore[%d][%d][%d] frames=%d bytes=%d\n",
					p, a, j, lk.Frames, lk.Bytes)
			}
		}
	}
	return out
}

// TestFatTreeMatchesGolden holds the k=8 fat-tree run to its transcript,
// the large-fabric leg of the determinism suite.
func TestFatTreeMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("k=8 fat-tree campaign")
	}
	checkGolden(t, fatTreeCaptureGolden, fatTreeScenario(8))
}

// firstDiff renders the first differing line between two transcripts.
func firstDiff(a, b string) string {
	la, lb := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			start := i - 80
			if start < 0 {
				start = 0
			}
			end := i + 80
			ea, eb := end, end
			if ea > len(a) {
				ea = len(a)
			}
			if eb > len(b) {
				eb = len(b)
			}
			return fmt.Sprintf("first diff at byte %d:\n got: %q\nwant: %q", i, a[start:ea], b[start:eb])
		}
		if a[i] == '\n' {
			la++
			lb++
		}
	}
	return fmt.Sprintf("transcripts are prefix-equal; lengths %d vs %d", len(a), len(b))
}
