// Package controlplane provides the operator-side runtime for Hydra
// checkers: a Controller that owns the per-switch attachments of one or
// more compiled checkers, typed install/delete helpers for the three
// kinds of control variables (§3.2: scalars, dictionaries, sets — each
// realized as match-action tables by the compiler), and a report sink
// that collects the digests checkers raise (§2's "report" action).
//
// Reports ride the internal/reportbus digest pipeline: every raised
// digest is published into the bus (one inline producer per switch, so
// the single-threaded netsim event loop delivers synchronously), the
// bus's per-digest tap feeds the controller's reactive OnReport
// callback and its retention store, and the bus's windowed aggregation,
// storm control, and exporters are available to any consumer that
// shares the bus (see Config.Bus).
//
// Retention policy: the controller keeps the last RetainPerChecker
// reports per checker (default 4096) in per-checker rings — O(1)
// insertion, O(k) ReportsFor — and counts what it evicts (Evicted).
// The full, lossless record is the bus's aggregate stream, not the
// controller's sample: retention exists for reactive control logic and
// tests, which want recent individual digests, not history.
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

// Report is one collected digest with its provenance.
type Report struct {
	Checker  string
	SwitchID uint32
	Switch   string
	At       netsim.Time
	Args     []uint64
}

// Config parameterizes a Controller.
type Config struct {
	// Bus, when set, is the report bus the controller publishes into and
	// taps; the caller keeps ownership (Close never closes it). Nil
	// means a private inline bus with default settings.
	Bus *reportbus.Bus
	// RetainPerChecker bounds the per-checker report retention; default
	// 4096, negative disables retention entirely (the bus still sees
	// every digest).
	RetainPerChecker int
}

// InstallObserver observes the control-plane mutations a Controller
// actually applies, per target switch: the hook the static verification
// layer (internal/atoms Audit) uses to cross-check declared intents
// against delivered installs. Scalars report a nil key; set members
// report value 1. WipeSwitch is deliberately unobserved — a wipe is a
// runtime fault, not a control-plane decision.
type InstallObserver interface {
	ControlInstalled(checker string, switchID uint32, varName string, key []uint64, value uint64)
	ControlDeleted(checker string, switchID uint32, varName string, key []uint64)
}

// Controller deploys compiled checkers onto switches and manages their
// control-plane state.
type Controller struct {
	mu sync.Mutex
	// atts[checker][switchID] is the attachment on that switch.
	atts map[string]map[uint32]*netsim.HydraAttachment
	// infos keeps the type information for width-correct installs.
	runtimes map[string]*compiler.Runtime
	// producers is the per-switch inline bus producer; swNames resolves
	// digest provenance back to a switch name.
	producers map[uint32]*reportbus.Producer
	swNames   map[uint32]string

	bus    *reportbus.Bus
	ownBus bool
	ret    retention

	// OnReport, when set, is additionally invoked for every report, fed
	// synchronously from the bus's per-digest tap.
	OnReport func(Report)

	// Observer, when set, sees every applied install/delete. Set it
	// before issuing installs; it is read under the controller's mutex.
	Observer InstallObserver
}

// NewController returns an empty controller with a private report bus.
func NewController() *Controller { return NewControllerWith(Config{}) }

// NewControllerWith returns an empty controller on the given bus and
// retention settings.
func NewControllerWith(cfg Config) *Controller {
	c := &Controller{
		atts:      map[string]map[uint32]*netsim.HydraAttachment{},
		runtimes:  map[string]*compiler.Runtime{},
		producers: map[uint32]*reportbus.Producer{},
		swNames:   map[uint32]string{},
		bus:       cfg.Bus,
	}
	if c.bus == nil {
		c.bus = reportbus.New(reportbus.Config{})
		c.ownBus = true
	}
	c.ret.perChecker = cfg.RetainPerChecker
	if c.ret.perChecker == 0 {
		c.ret.perChecker = defaultRetainPerChecker
	}
	c.ret.byChecker = map[string]*reportRing{}
	c.bus.Tap(c.deliver)
	return c
}

// Bus returns the controller's report bus.
func (c *Controller) Bus() *reportbus.Bus { return c.bus }

// Close flushes the report bus (and closes it when the controller owns
// it), emitting every pending aggregate to the bus's exporters.
func (c *Controller) Close() {
	if c.ownBus {
		c.bus.Close()
		return
	}
	c.bus.Flush()
}

// Deploy compiles nothing — it attaches an already-compiled checker to
// the given switches under the given name and wires its reports into
// the controller's sink.
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
	c.runtimes[name] = rt
	c.atts[name] = map[uint32]*netsim.HydraAttachment{}
	for _, sw := range switches {
		sw := sw
		// The producer is resolved once per attachment, so the per-digest
		// callback publishes without touching the controller's mutex.
		p := c.producerForLocked(sw)
		att := sw.AttachChecker(rt, func(s *netsim.Switch, rep pipeline.Report) {
			p.Publish(reportbus.DigestFrom(name, s.ID, int64(s.Sim().Now()), rep))
		})
		c.atts[name][sw.ID] = att
	}
	return nil
}

// sink publishes one raised digest into the report bus. The producer
// is inline, so the bus tap (deliver) runs before sink returns — the
// reactive path a simulation's control loop observes is synchronous.
func (c *Controller) sink(name string, sw *netsim.Switch, rep pipeline.Report) {
	c.producerFor(sw).Publish(reportbus.DigestFrom(name, sw.ID, int64(sw.Sim().Now()), rep))
}

// producerFor returns (creating on first use) the switch's inline bus
// producer.
func (c *Controller) producerFor(sw *netsim.Switch) *reportbus.Producer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.producerForLocked(sw)
}

// producerForLocked is producerFor with c.mu already held.
func (c *Controller) producerForLocked(sw *netsim.Switch) *reportbus.Producer {
	p, ok := c.producers[sw.ID]
	if !ok {
		p = c.bus.InlineProducer(fmt.Sprintf("switch:%s", sw.Name))
		c.producers[sw.ID] = p
		c.swNames[sw.ID] = sw.Name
	}
	return p
}

// deliver is the bus tap: it rebuilds the provenance-tagged Report,
// retains it, and runs the reactive callback. With retention disabled
// and no reactive callback there is no consumer, so it skips the
// per-digest Report construction entirely (the storm experiment's
// measured configuration).
func (c *Controller) deliver(d reportbus.Digest) {
	c.mu.Lock()
	name := c.swNames[d.SwitchID]
	cb := c.OnReport
	c.mu.Unlock()
	if cb == nil && c.ret.perChecker < 0 {
		return
	}
	r := Report{
		Checker:  d.Checker,
		SwitchID: d.SwitchID,
		Switch:   name,
		At:       netsim.Time(d.At),
		Args:     append([]uint64(nil), d.Args[:d.NArgs]...),
	}
	c.ret.add(r)
	if cb != nil {
		cb(r)
	}
}

// Reports returns a snapshot of the retained reports, oldest first
// across all checkers (bounded per checker; see the package comment's
// retention policy).
func (c *Controller) Reports() []Report { return c.ret.all() }

// ReportsFor returns the retained reports raised by one checker.
func (c *Controller) ReportsFor(name string) []Report { return c.ret.forChecker(name) }

// Evicted returns how many of a checker's reports the bounded retention
// has discarded (they remain visible in the bus's aggregate stream).
func (c *Controller) Evicted(name string) uint64 { return c.ret.evicted(name) }

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

// DeleteDict removes a dictionary entry.
func (c *Controller) DeleteDict(name string, switchID uint32, varName string, key []uint64) error {
	return c.forEach(name, switchID, func(id uint32, tbl *pipeline.Table) error {
		keys := make([]pipeline.KeyMatch, len(key))
		for i, k := range key {
			keys[i] = pipeline.ExactKey(k)
		}
		tbl.Delete(keys)
		c.observeDelete(name, id, varName, key)
		return nil
	}, varName)
}

// AddSet inserts a member into a set control variable.
func (c *Controller) AddSet(name string, switchID uint32, varName string, key ...uint64) error {
	return c.forEach(name, switchID, func(id uint32, tbl *pipeline.Table) error {
		keys := make([]pipeline.KeyMatch, len(key))
		for i, k := range key {
			keys[i] = pipeline.ExactKey(k)
		}
		if err := tbl.Insert(pipeline.Entry{Keys: keys}); err != nil {
			return err
		}
		c.observeInstall(name, id, varName, key, 1)
		return nil
	}, varName)
}

// observeInstall and observeDelete forward applied mutations to the
// install observer, when one is attached.
func (c *Controller) observeInstall(name string, id uint32, varName string, key []uint64, value uint64) {
	c.mu.Lock()
	obs := c.Observer
	c.mu.Unlock()
	if obs != nil {
		obs.ControlInstalled(name, id, varName, key, value)
	}
}

func (c *Controller) observeDelete(name string, id uint32, varName string, key []uint64) {
	c.mu.Lock()
	obs := c.Observer
	c.mu.Unlock()
	if obs != nil {
		obs.ControlDeleted(name, id, varName, key)
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
	for name, m := range c.atts {
		if att, ok := m[switchID]; ok {
			att.State = c.runtimes[name].Prog.NewState()
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
