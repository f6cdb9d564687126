// Package experiments contains the drivers that regenerate every
// experiment in EXPERIMENTS.md. The Zmail paper has no tables or
// figures of its own (it is a protocol-design paper), so each
// experiment here operationalizes one falsifiable claim from the
// paper's text; DESIGN.md §4 maps claims to experiment IDs.
//
// Every driver is deterministic given its seed and returns a Result
// holding the rendered table, a pass/fail verdict against the paper's
// claim, and notes. cmd/zsim prints them; the integration tests assert
// the verdicts.
package experiments

import (
	"fmt"
	"sort"

	"zmail/internal/metrics"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier ("E1" … "E20").
	ID string
	// Title is the claim under test.
	Title string
	// Table is the regenerated report table.
	Table *metrics.Table
	// Pass records whether the paper's claim held.
	Pass bool
	// Notes carries caveats and measured headline numbers.
	Notes string
}

// String renders the result for the CLI.
func (r *Result) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("=== %s: %s [%s]\n%s", r.ID, r.Title, verdict, r.Table.String())
	if r.Notes != "" {
		s += "notes: " + r.Notes + "\n"
	}
	return s
}

// Runner is one experiment entry point.
type Runner func(seed int64) (*Result, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"E1":  E1,
	"E2":  E2,
	"E3":  E3,
	"E4":  E4,
	"E5":  E5,
	"E6":  E6,
	"E7":  E7,
	"E8":  E8,
	"E9":  E9,
	"E10": E10,
	"E11": E11,
	"E12": E12,
	"E13": E13,
	"E14": E14,
	"E15": E15,
	"E16": E16,
	"E17": E17,
	"E18": E18,
	"E19": E19,
	"E20": E20,
}

// titles gives each experiment's claim without running it (zsim -list).
var titles = map[string]string{
	"E1":  "zero-sum: e-pennies are conserved end to end",
	"E2":  "spam cost and break-even response rate rise >=2 orders of magnitude",
	"E3":  "balanced users neither pay nor profit on average",
	"E4":  "credit-array verification flags exactly the misbehaving ISP's pairs",
	"E5":  "bulk reconciliation needs orders of magnitude fewer accounting messages",
	"E6":  "ack refunds make list distribution ~free and prune dead subscribers",
	"E7":  "daily limits bound zombie damage and detect infections",
	"E8":  "two compliant ISPs bootstrap federation-wide adoption",
	"E9":  "snapshot freeze buffers user mail without loss",
	"E10": "market forces: spam volume collapses as the e-penny price rises",
	"E11": "nonces and sequence numbers defeat message replay",
	"E12": "Zmail runs over unmodified SMTP on real sockets",
	"E13": "content filters false-positive on legitimate commercial mail; Zmail cannot",
	"E14": "the paper's formal specification passes randomized model checking",
	"E15": "audit rounds settle real money along net e-penny flows",
	"E16": "ablations confirm both published-spec bugs and both fixes",
	"E17": "a bank hierarchy preserves detection while shrinking the root's load",
	"E18": "one-workload shootout of every surveyed anti-spam approach",
	"E19": "the Gartner productivity figure is reproducible from first principles",
	"E20": "crashed ISPs and bank recover from persisted ledgers with every economic invariant intact",
}

// Title returns an experiment's one-line claim, or "".
func Title(id string) string { return titles[id] }

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, seed int64) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(seed)
}

// RunAll executes every experiment in order, stopping on driver errors
// but not on claim failures.
func RunAll(seed int64) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, seed)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}
