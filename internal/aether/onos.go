package aether

import (
	"fmt"
	"sort"

	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// FilterRule is one prioritized application-filtering rule of a slice,
// in the paper's "priority: ip-prefix : ip-proto : l4-port : action"
// form (§5.2). Zero PrefixBits, Proto, or PortHi mean "any".
type FilterRule struct {
	Priority   int
	AppPrefix  dataplane.IP4
	PrefixBits int
	Proto      uint8
	PortLo     uint16
	PortHi     uint16
	Allow      bool
}

// Matches reports whether the rule covers the given application flow.
func (r FilterRule) Matches(appIP dataplane.IP4, proto uint8, port uint16) bool {
	if r.PrefixBits > 0 && !appIP.InPrefix(r.AppPrefix, r.PrefixBits) {
		return false
	}
	if r.Proto != 0 && r.Proto != proto {
		return false
	}
	lo, hi := r.PortLo, r.PortHi
	if hi == 0 && lo == 0 {
		return true
	}
	return lo <= port && port <= hi
}

func (r FilterRule) String() string {
	act := "deny"
	if r.Allow {
		act = "allow"
	}
	return fmt.Sprintf("%d: %s/%d:%d:%d-%d:%s", r.Priority, r.AppPrefix, r.PrefixBits, r.Proto, r.PortLo, r.PortHi, act)
}

// signature identifies an Applications-table entry shared across the
// clients of a slice: the match portion of a rule.
func (r FilterRule) signature(sliceID uint8) string {
	return fmt.Sprintf("%d|%d/%d|%d|%d-%d|p%d", sliceID, uint32(r.AppPrefix), r.PrefixBits, r.Proto, r.PortLo, r.PortHi, r.Priority)
}

// Slice is an isolated group of clients plus its filtering rules.
type Slice struct {
	ID    uint8
	Rules []FilterRule
}

// Evaluate returns the operator-intended action for a flow: the highest-
// priority matching rule decides; no match means deny (slices are
// default-isolated).
func (s *Slice) Evaluate(appIP dataplane.IP4, proto uint8, port uint16) uint8 {
	best := -1
	action := ActionDeny
	for _, r := range s.Rules {
		if r.Priority > best && r.Matches(appIP, proto, port) {
			best = r.Priority
			if r.Allow {
				action = ActionAllow
			} else {
				action = ActionDeny
			}
		}
	}
	return action
}

// UE is a mobile client identified by its IMSI (§5.2).
type UE struct {
	IMSI     string
	ID       uint16
	IP       dataplane.IP4
	SliceID  uint8
	TEIDUp   uint32
	TEIDDown uint32
}

// ONOS models the SDN controller's UPF rule management, including the
// Figure 11 bug: Applications entries are shared per slice and created
// on demand when a client attaches, but clients that attached earlier
// are not reconciled against entries created later, so a higher-priority
// entry installed for a new client silently shadows the app IDs that
// older clients' Terminations entries reference.
type ONOS struct {
	upf *UPF

	appIDs    map[string]appEntry
	nextAppID uint8

	// FixedReconciliation enables the repaired behavior (used by tests
	// and the ablation bench to show the bug disappears): when a new
	// Applications entry is created, terminations are re-derived for
	// every attached client.
	FixedReconciliation bool

	attached []clientRules
}

type clientRules struct {
	ue    *UE
	rules []FilterRule
}

// appEntry records one shared Applications-table entry: its assigned ID
// and the rule it was derived from.
type appEntry struct {
	id   uint8
	rule FilterRule
}

// NewONOS returns a controller bound to the UPF tables.
func NewONOS(upf *UPF) *ONOS {
	return &ONOS{upf: upf, appIDs: map[string]appEntry{}}
}

// InstallSessions programs the GTP tunnel termination state for a UE.
func (o *ONOS) InstallSessions(ue *UE) error {
	if err := o.upf.SessUplink.Insert(pipeline.Entry{
		Keys:   []pipeline.KeyMatch{pipeline.ExactKey(uint64(ue.TEIDUp))},
		Action: []pipeline.Value{pipeline.B(16, uint64(ue.ID)), pipeline.B(8, uint64(ue.SliceID))},
	}); err != nil {
		return err
	}
	return o.upf.SessDownlink.Insert(pipeline.Entry{
		Keys: []pipeline.KeyMatch{pipeline.ExactKey(uint64(ue.IP))},
		Action: []pipeline.Value{
			pipeline.B(16, uint64(ue.ID)), pipeline.B(8, uint64(ue.SliceID)), pipeline.B(32, uint64(ue.TEIDDown)),
		},
	})
}

// InstallClientRules receives one client's filtering rules (the per-
// client granularity is forced by the PFCP interface, §5.2) and
// translates them into Applications and Terminations entries.
func (o *ONOS) InstallClientRules(ue *UE, rules []FilterRule) error {
	// Ascending priority order reproduces Figure 11's app-ID assignment
	// (deny-all → app 1, allow-81 → app 2, ...).
	sorted := append([]FilterRule(nil), rules...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Priority < sorted[j].Priority })

	createdNew := false
	for _, r := range sorted {
		sig := r.signature(ue.SliceID)
		entry, exists := o.appIDs[sig]
		if !exists {
			o.nextAppID++
			entry = appEntry{id: o.nextAppID, rule: r}
			o.appIDs[sig] = entry
			if err := o.installApplication(ue.SliceID, r, entry.id); err != nil {
				return err
			}
			createdNew = true
		}
		if err := o.installTerminations(ue.ID, entry.id, r.Allow); err != nil {
			return err
		}
	}
	o.attached = append(o.attached, clientRules{ue: ue, rules: rules})

	if o.FixedReconciliation && createdNew {
		// The repaired controller re-derives terminations for all
		// previously attached clients against the new entries.
		return o.reconcile()
	}
	// BUGGY PATH (the paper's Aether behavior): nothing is done for
	// previously attached clients, whose traffic can now classify into
	// a new app ID they have no Terminations entry for — and be dropped.
	return nil
}

func (o *ONOS) installApplication(sliceID uint8, r FilterRule, appID uint8) error {
	keys := []pipeline.KeyMatch{pipeline.ExactKey(uint64(sliceID))}
	if r.PrefixBits > 0 {
		keys = append(keys, pipeline.PrefixKey(uint64(r.AppPrefix), r.PrefixBits))
	} else {
		keys = append(keys, pipeline.AnyKey())
	}
	if r.PortLo == 0 && r.PortHi == 0 {
		keys = append(keys, pipeline.AnyKey())
	} else {
		keys = append(keys, pipeline.RangeKey(uint64(r.PortLo), uint64(r.PortHi)))
	}
	if r.Proto != 0 {
		keys = append(keys, pipeline.TernaryKey(uint64(r.Proto), 0xff))
	} else {
		keys = append(keys, pipeline.AnyKey())
	}
	return o.upf.Applications.Insert(pipeline.Entry{
		Keys:     keys,
		Priority: r.Priority,
		Action:   []pipeline.Value{pipeline.B(8, uint64(appID))},
		Name:     fmt.Sprintf("set_app_id(%d)", appID),
	})
}

func (o *ONOS) installTerminations(ueID uint16, appID uint8, allow bool) error {
	fwd := pipeline.B(1, 0)
	if allow {
		fwd = pipeline.B(1, 1)
	}
	e := pipeline.Entry{
		Keys:   []pipeline.KeyMatch{pipeline.ExactKey(uint64(ueID)), pipeline.ExactKey(uint64(appID))},
		Action: []pipeline.Value{fwd},
	}
	if err := o.upf.TermUplink.Insert(e); err != nil {
		return err
	}
	return o.upf.TermDownlink.Insert(e)
}

// reconcile recomputes every attached client's terminations against
// every known Applications entry (the fix the bug calls for): for each
// (client, entry) pair, the intended action is the client's own rule set
// evaluated at a flow the entry matches.
func (o *ONOS) reconcile() error {
	for _, cr := range o.attached {
		clientSlice := &Slice{Rules: cr.rules}
		for _, entry := range o.appIDs {
			rep := entry.rule.representative()
			action := clientSlice.Evaluate(rep.ip, rep.proto, rep.port)
			if err := o.installTerminations(cr.ue.ID, entry.id, action == ActionAllow); err != nil {
				return err
			}
		}
	}
	return nil
}

// representative returns a concrete flow the rule matches, used to ask
// a rule set what it intends for the scope of a shared entry.
func (r FilterRule) representative() (rep struct {
	ip    dataplane.IP4
	proto uint8
	port  uint16
}) {
	rep.ip = r.AppPrefix
	rep.proto = r.Proto
	rep.port = r.PortLo
	return rep
}

// MobileCore models the 3GPP dual-mode core: it owns slice definitions,
// allocates UE identity (IP, TEIDs) on attach, and — because PFCP has
// no slice-global rule scope — pushes each slice's filtering rules to
// ONOS once per attaching client (§5.2).
type MobileCore struct {
	onos   *ONOS
	slices map[uint8]*Slice

	nextUEID uint16
	nextTEID uint32
	uePool   uint32 // next host index in the UE prefix

	Attached []*UE
	// listeners are notified after each successful attach (the Hydra
	// control-plane app subscribes here).
	listeners []func(*UE)
}

// NewMobileCore returns a core bound to the given controller.
func NewMobileCore(onos *ONOS) *MobileCore {
	return &MobileCore{onos: onos, slices: map[uint8]*Slice{}, uePool: 1}
}

// DefineSlice registers (or replaces) a slice configuration.
func (mc *MobileCore) DefineSlice(s *Slice) { mc.slices[s.ID] = s }

// Slice returns a slice definition.
func (mc *MobileCore) Slice(id uint8) *Slice { return mc.slices[id] }

// UpdateSliceRules is the operator-portal update: it changes the slice's
// rules for *future* attaches. Per the PFCP interface there is no way to
// re-push rules for already-attached clients — the root condition the
// Figure 11 bug grows from.
func (mc *MobileCore) UpdateSliceRules(id uint8, rules []FilterRule) error {
	s, ok := mc.slices[id]
	if !ok {
		return fmt.Errorf("aether: unknown slice %d", id)
	}
	s.Rules = rules
	return nil
}

// OnAttach subscribes a listener to attach events.
func (mc *MobileCore) OnAttach(fn func(*UE)) { mc.listeners = append(mc.listeners, fn) }

// Attach admits a client into a slice: allocates identity, installs
// sessions, and sends the slice's *current* rules to ONOS for this
// client.
func (mc *MobileCore) Attach(imsi string, sliceID uint8) (*UE, error) {
	s, ok := mc.slices[sliceID]
	if !ok {
		return nil, fmt.Errorf("aether: unknown slice %d", sliceID)
	}
	mc.nextUEID++
	mc.nextTEID += 2
	ue := &UE{
		IMSI:     imsi,
		ID:       mc.nextUEID,
		IP:       dataplane.IP4(uint32(dataplane.MustIP4("10.250.0.0")) + mc.uePool),
		SliceID:  sliceID,
		TEIDUp:   mc.nextTEID - 1,
		TEIDDown: mc.nextTEID,
	}
	mc.uePool++
	if err := mc.onos.InstallSessions(ue); err != nil {
		return nil, err
	}
	if err := mc.onos.InstallClientRules(ue, s.Rules); err != nil {
		return nil, err
	}
	mc.Attached = append(mc.Attached, ue)
	for _, fn := range mc.listeners {
		fn(ue)
	}
	return ue, nil
}
