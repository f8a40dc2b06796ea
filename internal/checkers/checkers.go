// Package checkers is the corpus of Indus programs from the Hydra paper:
// the three worked examples of §2 (Figures 1–3), the two case studies of
// §5 (Figures 7 and 9), and the remaining Table 1 properties, which the
// paper describes but does not print; those are written here from their
// Table 1 descriptions.
//
// Each entry carries the paper's reported numbers (Indus LoC, generated
// P4 LoC, Tofino stages, PHV %) so the benchmark harness can print
// paper-vs-measured rows for Table 1.
package checkers

import (
	"fmt"
	"strings"

	"repro/internal/indus/parser"
	"repro/internal/indus/types"
)

// Property is one corpus entry.
type Property struct {
	Key         string // stable identifier, e.g. "multi-tenancy"
	Name        string // Table 1 property name
	Description string // Table 1 description
	Source      string // Indus source text

	// Paper-reported numbers from Table 1 (zero when not applicable).
	PaperIndusLoC int
	PaperP4LoC    int
	PaperStages   int
	PaperPHVPct   float64
}

// Baseline numbers from Table 1: the Aether P4 program compiled in the
// fabric-upf profile, to which every checker is linked.
const (
	BaselineStages = 12
	BaselinePHVPct = 44.53
)

// Parse parses and type-checks the property source.
func (p Property) Parse() (*types.Info, error) {
	prog, err := parser.Parse(p.Key+".indus", p.Source)
	if err != nil {
		return nil, fmt.Errorf("checkers: parsing %s: %w", p.Key, err)
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("checkers: checking %s: %w", p.Key, err)
	}
	return info, nil
}

// IndusLoC counts the non-blank, non-comment source lines, the measure
// Table 1 reports.
func (p Property) IndusLoC() int { return CountLoC(p.Source) }

// CountLoC counts non-blank lines that are not pure comments.
func CountLoC(src string) int {
	n := 0
	inBlockComment := false
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if inBlockComment {
			if idx := strings.Index(t, "*/"); idx >= 0 {
				t = strings.TrimSpace(t[idx+2:])
				inBlockComment = false
			} else {
				continue
			}
		}
		for {
			start := strings.Index(t, "/*")
			if start < 0 {
				break
			}
			end := strings.Index(t[start:], "*/")
			if end < 0 {
				t = strings.TrimSpace(t[:start])
				inBlockComment = true
				break
			}
			t = strings.TrimSpace(t[:start] + t[start+end+2:])
		}
		if idx := strings.Index(t, "//"); idx >= 0 {
			t = strings.TrimSpace(t[:idx])
		}
		if t != "" {
			n++
		}
	}
	return n
}

// ByKey returns the property with the given key.
func ByKey(key string) (Property, bool) {
	for _, p := range All {
		if p.Key == key {
			return p, true
		}
	}
	return Property{}, false
}

// MustParse parses and checks the property with the given key, panicking
// on failure; the corpus is tested, so failure is a programming error.
func MustParse(key string) *types.Info {
	p, ok := ByKey(key)
	if !ok {
		panic("checkers: unknown property " + key)
	}
	info, err := p.Parse()
	if err != nil {
		panic(err)
	}
	return info
}

// All is the corpus, in Table 1 order.
var All = []Property{
	{
		Key:         "multi-tenancy",
		Name:        "Multi-Tenancy",
		Description: "All traffic through a given ToR switch port, facing a bare-metal server should belong to the same tenant",
		Source:      MultiTenancySrc,

		PaperIndusLoC: 14, PaperP4LoC: 102, PaperStages: 11, PaperPHVPct: 48.44,
	},
	{
		Key:         "load-balance",
		Name:        "Datacenter uplink load balance",
		Description: "Uplink ports in data center switches should load balance, to exact equivalence, between specified ports",
		Source:      LoadBalanceSrc,

		PaperIndusLoC: 37, PaperP4LoC: 194, PaperStages: 12, PaperPHVPct: 48.83,
	},
	{
		Key:         "stateful-firewall",
		Name:        "Stateful firewall",
		Description: "Flows can only enter the network if a device inside initiated the communication",
		Source:      StatefulFirewallSrc,

		PaperIndusLoC: 23, PaperP4LoC: 164, PaperStages: 12, PaperPHVPct: 49.21,
	},
	{
		Key:         "app-filtering",
		Name:        "Application filtering",
		Description: "Clients should only be able to communicate with designated applications (as identified by layer 4 ports)",
		Source:      AppFilteringSrc,

		PaperIndusLoC: 64, PaperP4LoC: 126, PaperStages: 12, PaperPHVPct: 52.14,
	},
	{
		Key:         "vlan-isolation",
		Name:        "VLAN isolation",
		Description: "Packets should traverse switches in the same VLAN",
		Source:      VLANIsolationSrc,

		PaperIndusLoC: 21, PaperP4LoC: 119, PaperStages: 11, PaperPHVPct: 47.85,
	},
	{
		Key:         "egress-validity",
		Name:        "Egress port validity",
		Description: "Packets should only egress a switch at allowed ports",
		Source:      EgressValiditySrc,

		PaperIndusLoC: 18, PaperP4LoC: 132, PaperStages: 12, PaperPHVPct: 46.09,
	},
	{
		Key:         "routing-validity",
		Name:        "Routing validity",
		Description: "The first and last hop of any packet should be a leaf switch, while the rest of the hops are spine switches",
		Source:      RoutingValiditySrc,

		PaperIndusLoC: 21, PaperP4LoC: 122, PaperStages: 12, PaperPHVPct: 46.09,
	},
	{
		Key:         "loop-freedom",
		Name:        "Loops (4 hops)",
		Description: "Packets should not revisit a switch within 4 hops",
		Source:      LoopFreedomSrc,

		PaperIndusLoC: 20, PaperP4LoC: 156, PaperStages: 12, PaperPHVPct: 48.24,
	},
	{
		Key:         "waypointing",
		Name:        "Waypointing",
		Description: "All packets should pass through a choke point",
		Source:      WaypointingSrc,

		PaperIndusLoC: 22, PaperP4LoC: 154, PaperStages: 12, PaperPHVPct: 47.85,
	},
	{
		Key:         "service-chain",
		Name:        "Service chains",
		Description: "Packets from switch s to switch t should pass through switches (w1, w2, ..., wn) in that order on the way",
		Source:      ServiceChainSrc,

		PaperIndusLoC: 26, PaperP4LoC: 121, PaperStages: 12, PaperPHVPct: 47.26,
	},
	{
		Key:         "source-routing",
		Name:        "Source routing with path validation",
		Description: "A packet that is source routed through switches (s, s1, ..., t) should pass them in order",
		Source:      SourceRoutingSrc,

		PaperIndusLoC: 34, PaperP4LoC: 211, PaperStages: 12, PaperPHVPct: 51.56,
	},
	{
		Key:         "valley-free",
		Name:        "Valley-free source routing",
		Description: "Packets may not traverse an up link after a down link: a spine switch is visited at most once (Figure 7)",
		Source:      ValleyFreeSrc,
		// Not a Table 1 row; §5.1 case study.
	},
}
