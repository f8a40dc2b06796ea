package netsim

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/difftest"
	"repro/internal/pipeline"
)

// scalarProbeSrc rejects on a scalar control and reports it, all in
// its checker block, which a NIC runs alone.
const scalarProbeSrc = `
control bit<32> mark;

{ }
{ }
{
  report(mark);
  if (mark == 0) {
    reject;
  }
}
`

// TestScalarWriteVisibleAtNextPacket makes, between two packets, each
// write a controller can make to a scalar control — Insert, Delete back
// to the default, Clear, CopyFrom another table, and the fault injectors'
// wipe, the attachment's State reset in place — on an edge switch (two passes a
// packet, {init} then {telemetry, checker}, over one row binding) and on
// a NIC: the very next packet's verdict and reports must be the map
// reference's over a state given the same writes.
func TestScalarWriteVisibleAtNextPacket(t *testing.T) {
	rt := &compiler.Runtime{Prog: compileSource(t, "scalar-probe", scalarProbeSrc)}
	donor := rt.Prog.NewState()
	setMark(t, donor, 7)
	steps := []struct {
		name  string
		write func(*pipeline.State)
	}{
		{"insert", func(st *pipeline.State) { setMark(t, st, 5) }},
		{"re-insert", func(st *pipeline.State) { setMark(t, st, 9) }},
		{"delete", func(st *pipeline.State) { st.Tables["mark"].Delete(nil) }},
		{"insert after delete", func(st *pipeline.State) { setMark(t, st, 5) }},
		{"clear", func(st *pipeline.State) { st.Tables["mark"].Clear() }},
		{"copy", func(st *pipeline.State) {
			if err := st.Tables["mark"].CopyFrom(donor.Tables["mark"]); err != nil {
				t.Fatal(err)
			}
		}},
		{"wipe", (*pipeline.State).Reset},
		{"insert after wipe", func(st *pipeline.State) { setMark(t, st, 4) }},
	}
	hdrs := packetHeaders(udpPacket())

	sim := NewSimulator()
	sw := edgeSwitch(sim)
	var swReports, nicReports [][]uint64
	at := sw.AttachChecker(rt, reportArgs(&swReports))
	h := NewHost(sim, "h", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	nic := h.AttachNIC(rt, reportArgs(&nicReports))
	blobLen := h.nic.linked().Set.TeleWireBytes()
	embedders := []struct {
		name  string
		state *pipeline.State
		blob  []byte // the telemetry the pass starts from: nil at a first hop
		send  func() (bool, [][]uint64)
	}{
		{"switch", at.State, nil, func() (bool, [][]uint64) {
			rejected, n := at.Rejected, len(swReports)
			sw.Receive(udpPacket().Serialize(), 1)
			sim.RunAll()
			return at.Rejected > rejected, swReports[n:]
		}},
		{"nic", nic.State, make([]byte, blobLen), func() (bool, [][]uint64) {
			pkt := udpPacket()
			pkt.Eth.Dst = h.MAC
			pkt.InsertHydra(make([]byte, blobLen))
			rejected, n := nic.Rejected, len(nicReports)
			h.Receive(pkt.Serialize(), 0)
			sim.RunAll()
			return nic.Rejected > rejected, nicReports[n:]
		}},
	}
	for _, e := range embedders {
		ref := rt.Prog.NewState()
		marks := map[uint64]bool{}
		for k := -1; k < len(steps); k++ {
			step := "before any write"
			if k >= 0 {
				step = steps[k].name
				steps[k].write(e.state)
				steps[k].write(ref)
			}
			env := difftest.HopEnv{State: ref, SwitchID: 7, Headers: hdrs, PacketLen: 100}
			hr, err := difftest.Reference{Prog: rt.Prog}.RunHop(e.blob, env, e.blob == nil, true)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]uint64
			for _, rep := range hr.Reports {
				args := make([]uint64, len(rep.Args))
				for i, a := range rep.Args {
					args[i] = a.V
				}
				want = append(want, args)
			}
			reject, got := e.send()
			if reject != hr.Reject || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: reject %v, reports %v; the reference: %v, %v", e.name, step, reject, got, hr.Reject, want)
			}
			marks[want[0][0]] = true
		}
		if len(marks) < 5 {
			t.Errorf("%s: vacuous, the reference saw marks %v", e.name, marks)
		}
	}
}
