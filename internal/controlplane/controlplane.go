// Package controlplane provides the operator-side runtime for Hydra
// checkers: a Controller that owns the per-switch attachments of one or
// more compiled checkers, typed install/delete helpers for the three
// kinds of control variables (§3.2: scalars, dictionaries, sets — each
// realized as match-action tables by the compiler), and the wiring that
// sends the digests checkers raise (§2's "report" action) to the
// control plane.
//
// That wiring is the caller's internal/reportbus Bus, and nothing else:
// every raised digest is published into it through one inline producer
// per switch, and the controller keeps no copy. A reactive consumer
// registers a Bus.Tap — with inline producers it fires before the
// raising packet moves on, so a simulation's control loop reacts at the
// instant of the report — and the bus's windowed aggregation, storm
// control and exporters serve everyone else. The caller owns the bus:
// it flushes or closes it when the run is over.
//
// The Aether-specific control logic (ONOS's UPF rule translation and
// the Hydra intent app) lives in internal/aether; this package is the
// generic layer both it and the experiment harnesses build on.
package controlplane

import (
	"fmt"
	"sync"

	"repro/internal/compiler"
	"repro/internal/indus/types"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// InstallObserver observes the control-plane mutations a Controller
// actually applies, per target switch: the hook the static verification
// layer (internal/atoms Audit) uses to cross-check declared intents
// against delivered installs. Scalars report a nil key. WipeSwitch is
// deliberately unobserved — a wipe is a runtime fault, not a
// control-plane decision.
type InstallObserver interface {
	ControlInstalled(checker string, switchID uint32, varName string, key []uint64, value uint64)
}

// Controller deploys compiled checkers onto switches and manages their
// control-plane state.
type Controller struct {
	mu sync.Mutex
	// atts[checker][switchID] is the attachment on that switch.
	atts map[string]map[uint32]*netsim.HydraAttachment
	// producers is the per-switch inline producer on bus.
	producers map[uint32]*reportbus.Producer
	bus       *reportbus.Bus

	// Observer, when set, sees every applied install/delete. Set it
	// before issuing installs; it is read under the controller's mutex.
	Observer InstallObserver
}

// NewController returns an empty controller that publishes every
// digest its checkers raise into bus.
func NewController(bus *reportbus.Bus) *Controller {
	return &Controller{
		atts:      map[string]map[uint32]*netsim.HydraAttachment{},
		producers: map[uint32]*reportbus.Producer{},
		bus:       bus,
	}
}

// Deploy compiles the checker, attaches it to the given switches under
// the given name, and publishes every report it raises into the bus.
func (c *Controller) Deploy(name string, info *types.Info, switches ...*netsim.Switch) error {
	prog, err := compiler.Compile(info, compiler.Options{Name: name})
	if err != nil {
		return fmt.Errorf("controlplane: compiling %s: %w", name, err)
	}
	rt := &compiler.Runtime{Prog: prog}
	if err := rt.VMErr(); err != nil {
		return fmt.Errorf("controlplane: checker %s has no VM form: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.atts[name]; dup {
		return fmt.Errorf("controlplane: checker %q already deployed", name)
	}
	c.atts[name] = map[uint32]*netsim.HydraAttachment{}
	for _, sw := range switches {
		// The producer is resolved once per attachment, so the per-digest
		// callback publishes without touching the controller's mutex.
		p, ok := c.producers[sw.ID]
		if !ok {
			p = c.bus.InlineProducer(fmt.Sprintf("switch:%s", sw.Name))
			c.producers[sw.ID] = p
		}
		c.atts[name][sw.ID] = sw.AttachChecker(rt, func(rep pipeline.Report) {
			p.Publish(reportbus.DigestFrom(name, sw.ID, int64(sw.Sim().Now()), rep))
		})
	}
	return nil
}

// Attachment returns the per-switch attachment of a deployed checker.
func (c *Controller) Attachment(name string, switchID uint32) (*netsim.HydraAttachment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.atts[name]
	if !ok {
		return nil, fmt.Errorf("controlplane: checker %q not deployed", name)
	}
	att, ok := m[switchID]
	if !ok {
		return nil, fmt.Errorf("controlplane: checker %q not on switch %d", name, switchID)
	}
	return att, nil
}

// table resolves the realizing table of a control variable on one
// switch (or on all switches when switchID is 0 via forEach).
func (c *Controller) forEach(name string, switchID uint32, fn func(uint32, *pipeline.Table) error, varName string) error {
	c.mu.Lock()
	m, ok := c.atts[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("controlplane: checker %q not deployed", name)
	}
	applied := 0
	for id, att := range m {
		if switchID != 0 && id != switchID {
			continue
		}
		tbl, ok := att.State.Tables[varName]
		if !ok {
			return fmt.Errorf("controlplane: checker %q has no control variable %q", name, varName)
		}
		if err := fn(id, tbl); err != nil {
			return err
		}
		applied++
	}
	if applied == 0 {
		return fmt.Errorf("controlplane: checker %q not on switch %d", name, switchID)
	}
	return nil
}

// SetScalar installs a scalar control variable's value. switchID 0
// means every switch the checker is deployed on.
func (c *Controller) SetScalar(name string, switchID uint32, varName string, value uint64) error {
	return c.forEach(name, switchID, func(id uint32, tbl *pipeline.Table) error {
		w := 1
		if len(tbl.Outputs) == 1 {
			// Width travels with the default action value.
			w = tbl.Default[0].W
		}
		if err := tbl.Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(w, value)}}); err != nil {
			return err
		}
		c.observeInstall(name, id, varName, nil, value)
		return nil
	}, varName)
}

// PutDict installs key -> value into a dictionary control variable.
// switchID 0 targets every switch.
func (c *Controller) PutDict(name string, switchID uint32, varName string, key []uint64, value uint64) error {
	return c.forEach(name, switchID, func(id uint32, tbl *pipeline.Table) error {
		keys := make([]pipeline.KeyMatch, len(key))
		for i, k := range key {
			keys[i] = pipeline.ExactKey(k)
		}
		w := tbl.Default[0].W
		if err := tbl.Insert(pipeline.Entry{Keys: keys, Action: []pipeline.Value{pipeline.B(w, value)}}); err != nil {
			return err
		}
		c.observeInstall(name, id, varName, key, value)
		return nil
	}, varName)
}

// observeInstall forwards an applied install to the install observer,
// when one is attached.
func (c *Controller) observeInstall(name string, id uint32, varName string, key []uint64, value uint64) {
	c.mu.Lock()
	obs := c.Observer
	c.mu.Unlock()
	if obs != nil {
		obs.ControlInstalled(name, id, varName, key, value)
	}
}

// WipeSwitch resets every checker attachment on the given switch to
// factory state — the register wipe of a switch crash/restart: all
// installed table entries and register values are lost and must be
// reinstalled. Returns how many attachments were wiped. Call it only
// from the simulator thread (it swaps the state the switch reads per
// packet).
func (c *Controller) WipeSwitch(switchID uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.atts {
		if att, ok := m[switchID]; ok {
			att.State = att.Runtime.Prog.NewState()
			n++
		}
	}
	return n
}

// Rejected sums the rejected-packet counters of one checker across
// switches.
func (c *Controller) Rejected(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, att := range c.atts[name] {
		n += att.Rejected
	}
	return n
}
