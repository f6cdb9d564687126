// Package ap is an executable runtime for the Abstract Protocol (AP)
// notation of Gouda's "Elements of Network Protocol Design", which the
// Zmail paper uses for its formal specification (§3).
//
// An AP protocol is a set of processes, each defined by actions of the
// form ⟨guard⟩ → ⟨statement⟩. Guards are (1) boolean expressions over
// the process's own state, (2) receive guards "rcv m from q", or (3)
// timeout guards — boolean expressions over global state, including
// channel contents. Between every ordered pair of processes there is
// one FIFO channel. Execution follows three rules (§3):
//
//  1. an action executes only when its guard is true;
//  2. actions execute one at a time;
//  3. an action whose guard is continuously true is eventually
//     executed (weak fairness).
//
// The scheduler here picks uniformly at random (from a seed) among all
// enabled actions, which satisfies rules 1–2 exactly and rule 3 with
// probability 1. Invariants can be registered and are checked after
// every step, turning the runtime into a lightweight randomized model
// checker for specs such as internal/ap/zmailspec.
package ap

import (
	"fmt"
	"math/rand"
	"sort"
)

// Message is a typed value in a channel.
type Message struct {
	Kind string
	Data any
}

// guardKind discriminates the three AP guard forms.
type guardKind int

const (
	guardLocal guardKind = iota + 1
	guardReceive
	guardTimeout
)

// Action is one guarded command of a process.
type Action struct {
	Name string

	kind guardKind
	// local / timeout guard
	pred func() bool
	// receive guard filter: sender ("" = any) and message kind
	from string
	msg  string
	// bodies
	body    func()
	receive func(from string, data any)
}

// Process is a named AP process. Its private state lives in the
// closures of its actions.
type Process struct {
	Name    string
	actions []*Action
}

// AddAction registers a local-guard action.
func (p *Process) AddAction(name string, guard func() bool, body func()) {
	p.actions = append(p.actions, &Action{
		Name: name, kind: guardLocal, pred: guard, body: body,
	})
}

// AddReceive registers a receive-guard action: it is enabled when the
// head of some channel into p is a message of the given kind from the
// given sender ("" matches any sender). Executing it consumes the
// message.
func (p *Process) AddReceive(name, from, kind string, body func(from string, data any)) {
	p.actions = append(p.actions, &Action{
		Name: name, kind: guardReceive, from: from, msg: kind, receive: body,
	})
}

// AddTimeout registers a timeout-guard action. Per the AP notation its
// predicate may inspect global state — use System.ChannelLen and
// friends inside the closure.
func (p *Process) AddTimeout(name string, guard func() bool, body func()) {
	p.actions = append(p.actions, &Action{
		Name: name, kind: guardTimeout, pred: guard, body: body,
	})
}

// Invariant is a predicate over global state checked after every step.
type Invariant struct {
	Name string
	Hold func() bool
}

// System is a set of processes plus all pairwise channels.
type System struct {
	rng        *rand.Rand
	procs      []*Process
	procIndex  map[string]*Process
	channels   map[[2]string][]Message
	invariants []Invariant
	steps      int
	trace      func(proc, action string, m *Message)
}

// NewSystem creates an empty system with the given scheduler seed.
func NewSystem(seed int64) *System {
	return &System{
		rng:       rand.New(rand.NewSource(seed)),
		procIndex: make(map[string]*Process),
		channels:  make(map[[2]string][]Message),
	}
}

// NewProcess creates and registers a process.
func (s *System) NewProcess(name string) *Process {
	if _, dup := s.procIndex[name]; dup {
		panic(fmt.Sprintf("ap: duplicate process %q", name))
	}
	p := &Process{Name: name}
	s.procs = append(s.procs, p)
	s.procIndex[name] = p
	return p
}

// AddInvariant registers a global invariant.
func (s *System) AddInvariant(name string, hold func() bool) {
	s.invariants = append(s.invariants, Invariant{Name: name, Hold: hold})
}

// ReceiveKinds enumerates the message kinds some process is registered
// to receive, sorted and deduplicated: the spec's receive vocabulary
// read off the live action set, which zmailspec's tests compare with
// the wire codec's kinds.
func (s *System) ReceiveKinds() []string {
	seen := make(map[string]bool)
	for _, p := range s.procs {
		for _, a := range p.actions {
			if a.kind == guardReceive && a.msg != "" {
				seen[a.msg] = true
			}
		}
	}
	kinds := make([]string, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// SetTrace installs a step hook (nil clears).
func (s *System) SetTrace(fn func(proc, action string, m *Message)) { s.trace = fn }

// Send appends a message to the channel from src to dst. Statements
// call this; it never blocks (AP channels are unbounded).
func (s *System) Send(src, dst, kind string, data any) {
	key := [2]string{src, dst}
	s.channels[key] = append(s.channels[key], Message{Kind: kind, Data: data})
}

// ChannelLen reports the queue length from src to dst.
func (s *System) ChannelLen(src, dst string) int {
	return len(s.channels[[2]string{src, dst}])
}

// ChannelsInto reports the total number of messages queued toward dst.
func (s *System) ChannelsInto(dst string) int {
	n := 0
	for key, q := range s.channels {
		if key[1] == dst {
			n += len(q)
		}
	}
	return n
}

// ChannelKindLen counts messages of the given kind queued from src to
// dst. Timeout guards use it to express conditions like "no email in
// flight from me".
func (s *System) ChannelKindLen(src, dst, kind string) int {
	n := 0
	for _, m := range s.channels[[2]string{src, dst}] {
		if m.Kind == kind {
			n++
		}
	}
	return n
}

// ChannelScan counts queued messages from src to dst satisfying pred.
// It exists so global invariants can account for in-flight payloads.
func (s *System) ChannelScan(src, dst string, pred func(Message) bool) int {
	n := 0
	for _, m := range s.channels[[2]string{src, dst}] {
		if pred(m) {
			n++
		}
	}
	return n
}

// ChannelsEmpty reports whether every channel in the system is empty.
func (s *System) ChannelsEmpty() bool {
	for _, q := range s.channels {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// Steps returns how many actions have executed.
func (s *System) Steps() int { return s.steps }

// enabled describes one runnable (process, action) pair, with the
// source channel for receive actions.
type enabled struct {
	proc   *Process
	action *Action
	src    string
}

func (s *System) enabledActions() []enabled {
	var out []enabled
	for _, p := range s.procs {
		for _, a := range p.actions {
			switch a.kind {
			case guardLocal, guardTimeout:
				if a.pred() {
					out = append(out, enabled{proc: p, action: a})
				}
			case guardReceive:
				for _, q := range s.procs {
					if a.from != "" && a.from != q.Name {
						continue
					}
					ch := s.channels[[2]string{q.Name, p.Name}]
					if len(ch) > 0 && ch[0].Kind == a.msg {
						out = append(out, enabled{proc: p, action: a, src: q.Name})
					}
				}
			}
		}
	}
	return out
}

// InvariantError reports a violated invariant.
type InvariantError struct {
	Invariant string
	Step      int
	Proc      string
	Action    string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("ap: invariant %q violated at step %d after %s.%s",
		e.Invariant, e.Step, e.Proc, e.Action)
}

// Step executes one randomly chosen enabled action. It returns false
// when no action is enabled (the system is quiescent), and an error if
// an invariant breaks.
func (s *System) Step() (bool, error) {
	en := s.enabledActions()
	if len(en) == 0 {
		return false, nil
	}
	pick := en[s.rng.Intn(len(en))]
	a := pick.action
	var consumed *Message
	switch a.kind {
	case guardLocal, guardTimeout:
		a.body()
	case guardReceive:
		key := [2]string{pick.src, pick.proc.Name}
		q := s.channels[key]
		m := q[0]
		s.channels[key] = q[1:]
		consumed = &m
		a.receive(pick.src, m.Data)
	}
	s.steps++
	if s.trace != nil {
		s.trace(pick.proc.Name, a.Name, consumed)
	}
	for _, inv := range s.invariants {
		if !inv.Hold() {
			return true, &InvariantError{
				Invariant: inv.Name, Step: s.steps,
				Proc: pick.proc.Name, Action: a.Name,
			}
		}
	}
	return true, nil
}

// Run executes up to maxSteps actions, stopping early at quiescence or
// on an invariant violation. It returns the number of steps taken.
func (s *System) Run(maxSteps int) (int, error) {
	start := s.steps
	for s.steps-start < maxSteps {
		progressed, err := s.Step()
		if err != nil {
			return s.steps - start, err
		}
		if !progressed {
			break
		}
	}
	return s.steps - start, nil
}
