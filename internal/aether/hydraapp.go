package aether

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/reportbus"
)

// checkerName is the name the deployment gives the Figure 9 checker.
const checkerName = "app-filtering"

// AppEndpoint is one known edge application: the Hydra control-plane
// app expands operator intent over these concrete endpoints when
// populating the checker's exact-match filtering_actions dictionary.
type AppEndpoint struct {
	IP    dataplane.IP4
	Proto uint8
	Ports []uint16
}

// HydraApp is the "simple control plane application that runs atop ONOS"
// of §5.2: it holds the operator's filtering intent, listens for attach
// requests, installs the corresponding entries in the filtering_actions
// dictionary of the Figure 9 checker on every switch through the
// controller, and reads the checker's reports off the report bus. It is
// deliberately independent of ONOS's UPF rule translation — that
// independence is what lets the checker catch the Figure 11 bug.
type HydraApp struct {
	core *MobileCore
	ctl  *controlplane.Controller
	apps []AppEndpoint

	ues []*UE
	// Reports collects every digest raised by the checker.
	Reports []FilteringReport
}

// FilteringReport is a decoded Figure 9 report.
type FilteringReport struct {
	Switch  uint32
	UEAddr  dataplane.IP4
	Proto   uint8
	AppAddr dataplane.IP4
	L4Port  uint16
	Action  uint8
	At      netsim.Time
}

// NewHydraApp wires the app to the core's attach events and to the
// bus the controller publishes the checker's reports into.
func NewHydraApp(core *MobileCore, ctl *controlplane.Controller, bus *reportbus.Bus, apps []AppEndpoint) *HydraApp {
	a := &HydraApp{core: core, ctl: ctl, apps: apps}
	core.OnAttach(a.onAttach)
	bus.Tap(a.onDigest)
	return a
}

// onDigest decodes one of the checker's reports. The controller's
// producers are inline, so it runs at the instant of the raise.
func (a *HydraApp) onDigest(d reportbus.Digest) {
	if d.Checker != checkerName || d.NArgs != 5 {
		return
	}
	a.Reports = append(a.Reports, FilteringReport{
		Switch:  d.SwitchID,
		UEAddr:  dataplane.IP4(d.Args[0]),
		Proto:   uint8(d.Args[1]),
		AppAddr: dataplane.IP4(d.Args[2]),
		L4Port:  uint16(d.Args[3]),
		Action:  uint8(d.Args[4]),
		At:      netsim.Time(d.At),
	})
}

func (a *HydraApp) onAttach(ue *UE) {
	a.ues = append(a.ues, ue)
	a.installFor(ue)
}

// Refresh re-derives every attached client's checker entries from the
// current operator intent; the deployment calls it after a portal
// update. (Unlike the PFCP path, the checker's dictionary CAN be updated
// for existing clients — it encodes intent, not per-client UPF state.)
func (a *HydraApp) Refresh() {
	for _, ue := range a.ues {
		a.installFor(ue)
	}
}

func (a *HydraApp) installFor(ue *UE) {
	s := a.core.Slice(ue.SliceID)
	if s == nil {
		return
	}
	for _, app := range a.apps {
		for _, port := range app.Ports {
			key := []uint64{uint64(ue.IP), uint64(app.Proto), uint64(app.IP), uint64(port)}
			action := s.Evaluate(app.IP, app.Proto, port)
			// The deployment put the checker on every switch, so an install
			// can only fail on a broken build.
			if err := a.ctl.PutDict(checkerName, 0, "filtering_actions", key, uint64(action)); err != nil {
				panic(fmt.Sprintf("aether: installing intent for %s: %v", ue.IP, err))
			}
		}
	}
}
