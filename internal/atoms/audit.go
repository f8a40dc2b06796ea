package atoms

import (
	"fmt"
	"sort"
	"strings"
)

// Audit is the control-variable half of static verification: it
// cross-checks the control plane's *declared* install intents against
// the installs a controlplane.Controller actually applied, flagging
// entries that were withheld or have not landed yet. Route-table
// invariants live in Verifier; Audit covers the checker control state
// (firewall allow-lists, VLAN membership, ...) that route atoms cannot
// see.
//
// It implements the controller's InstallObserver contract structurally
// (ControlInstalled), so wiring is one assignment:
//
//	audit := atoms.NewAudit()
//	ctl.Observer = audit
//
// Deliberately NOT observed: switch wipes (Controller.WipeSwitch) and
// direct table mutations that bypass the controller. A crash that loses
// installed state is a runtime fault — the two-layer chaos oracle wants
// it caught by the runtime checkers, not statically — so an install
// stays "applied" once observed.
type Audit struct {
	// expected[k] is the set of switches intent k must land on;
	// installed[k] the set it has landed on.
	expected  map[intentKey]map[uint32]struct{}
	installed map[intentKey]map[uint32]struct{}
}

type intentKey struct {
	checker string
	varName string
	key     string // "/"-joined key words; "" for scalars
}

func encodeKey(key []uint64) string {
	if len(key) == 0 {
		return ""
	}
	parts := make([]string, len(key))
	for i, k := range key {
		parts[i] = fmt.Sprintf("%d", k)
	}
	return strings.Join(parts, "/")
}

// MissingInstall is one declared intent a switch has not applied.
type MissingInstall struct {
	Checker string
	Var     string
	Key     string
	Switch  uint32
}

func (m MissingInstall) String() string {
	if m.Key == "" {
		return fmt.Sprintf("%s/%s not installed on switch %d", m.Checker, m.Var, m.Switch)
	}
	return fmt.Sprintf("%s/%s[%s] not installed on switch %d", m.Checker, m.Var, m.Key, m.Switch)
}

// NewAudit returns an empty audit.
func NewAudit() *Audit {
	return &Audit{
		expected:  map[intentKey]map[uint32]struct{}{},
		installed: map[intentKey]map[uint32]struct{}{},
	}
}

// Expect declares that (checker, varName, key) must be installed on
// each of the given switches.
func (a *Audit) Expect(checker, varName string, key []uint64, switches ...uint32) {
	k := intentKey{checker, varName, encodeKey(key)}
	set := a.expected[k]
	if set == nil {
		set = map[uint32]struct{}{}
		a.expected[k] = set
	}
	for _, id := range switches {
		set[id] = struct{}{}
	}
}

// ControlInstalled records an applied install (the controller's
// InstallObserver hook). Installs with no declared intent are recorded
// too, so a later Expect is immediately satisfied.
func (a *Audit) ControlInstalled(checker string, switchID uint32, varName string, key []uint64, value uint64) {
	k := intentKey{checker, varName, encodeKey(key)}
	set := a.installed[k]
	if set == nil {
		set = map[uint32]struct{}{}
		a.installed[k] = set
	}
	set[switchID] = struct{}{}
}

// Missing snapshots every declared intent not currently applied, sorted
// by (checker, var, key, switch) — the static verdict on withheld and
// not-yet-delivered installs.
func (a *Audit) Missing() []MissingInstall {
	var out []MissingInstall
	for k, sws := range a.expected {
		inst := a.installed[k]
		for id := range sws {
			if _, ok := inst[id]; !ok {
				out = append(out, MissingInstall{Checker: k.checker, Var: k.varName, Key: k.key, Switch: id})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Checker != y.Checker {
			return x.Checker < y.Checker
		}
		if x.Var != y.Var {
			return x.Var < y.Var
		}
		if x.Key != y.Key {
			return x.Key < y.Key
		}
		return x.Switch < y.Switch
	})
	return out
}
