package isp

import (
	"errors"
	"testing"
	"time"

	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/mail"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// fakeTransport records everything the engine emits.
type fakeTransport struct {
	mails  []sentMail
	bank   []*wire.Envelope
	local  []delivered
	acks   []delivered
	onMail func(sentMail)
	// onLocal, when set, runs on each local delivery.
	onLocal func(delivered)
}

type sentMail struct {
	toIndex  int
	toDomain string
	msg      *mail.Message
}

type delivered struct {
	user string
	msg  *mail.Message
}

func (f *fakeTransport) SendMail(toIndex int, toDomain string, msg *mail.Message) {
	sm := sentMail{toIndex: toIndex, toDomain: toDomain, msg: msg}
	f.mails = append(f.mails, sm)
	if f.onMail != nil {
		f.onMail(sm)
	}
}
func (f *fakeTransport) SendBank(env *wire.Envelope) { f.bank = append(f.bank, env) }
func (f *fakeTransport) DeliverLocal(user string, msg *mail.Message) {
	f.local = append(f.local, delivered{user, msg})
	if f.onLocal != nil {
		f.onLocal(delivered{user, msg})
	}
}
func (f *fakeTransport) DeliverAck(user string, msg *mail.Message) {
	f.acks = append(f.acks, delivered{user, msg})
}

// thawAfter is how long after a freeze begins a newEngine engine sends
// again: its quiet period plus the guard interval that follows the cut.
const thawAfter = time.Minute + time.Minute/thawGuardShare

var testDomains = []string{"a.example", "b.example", "c.example"}

func newEngine(t *testing.T, index int, compliant []bool, mutate func(*Config)) (*Engine, *fakeTransport, *clock.Virtual) {
	t.Helper()
	ft := &fakeTransport{}
	clk := clock.NewVirtual(time.Unix(1_100_000_000, 0))
	cfg := Config{
		Index:          index,
		Domain:         testDomains[index],
		Directory:      NewDirectory(testDomains, compliant),
		Clock:          clk,
		Transport:      ft,
		MinAvail:       100,
		MaxAvail:       1000,
		InitialAvail:   500,
		DefaultLimit:   10,
		FreezeDuration: time.Minute,
		BankSealer:     crypto.Null{},
		OwnSealer:      crypto.Null{},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, ft, clk
}

func addr(s string) mail.Address { return mail.MustParseAddress(s) }

func mustRegister(t *testing.T, e *Engine, name string, account, balance int64) {
	t.Helper()
	if err := e.RegisterUser(name, Penny(account), EPenny(balance), 0); err != nil {
		t.Fatal(err)
	}
}

// Local aliases keep test call sites readable.
type (
	Penny  = money.Penny
	EPenny = money.EPenny
)

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Index:     0,
			Domain:    "a.example",
			Directory: NewDirectory(testDomains, nil),
			Clock:     clock.NewVirtual(time.Unix(0, 0)),
			Transport: &fakeTransport{},
		}
	}
	if _, err := New(base()); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	c := base()
	c.Directory = nil
	if _, err := New(c); err == nil {
		t.Error("nil directory accepted")
	}
	c = base()
	c.Clock = nil
	if _, err := New(c); err == nil {
		t.Error("nil clock accepted")
	}
	c = base()
	c.Transport = nil
	if _, err := New(c); err == nil {
		t.Error("nil transport accepted")
	}
	c = base()
	c.Index = 9
	if _, err := New(c); err == nil {
		t.Error("out-of-range index accepted")
	}
	c = base()
	c.Directory = NewDirectory(testDomains, []bool{false, true, true})
	if _, err := New(c); !errors.Is(err, ErrNotCompliant) {
		t.Errorf("non-compliant self: err = %v", err)
	}
	c = base()
	c.MinAvail, c.MaxAvail = 100, 50
	if _, err := New(c); err == nil {
		t.Error("inverted pool band accepted")
	}
}

func TestRegisterUser(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 100, 50)
	if err := e.RegisterUser("alice", 0, 0, 0); !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("duplicate register: %v", err)
	}
	info, ok := e.User("alice")
	if !ok || info.Balance != 50 || info.Account != 100 || info.Limit != 10 {
		t.Fatalf("user info = %+v", info)
	}
	// Seed balance came out of the pool.
	if e.Avail() != 450 {
		t.Fatalf("pool = %v, want 450", e.Avail())
	}
	// Pool exhaustion.
	if err := e.RegisterUser("greedy", 0, 10_000, 0); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("pool exhaustion: %v", err)
	}
	if _, ok := e.User("nobody"); ok {
		t.Fatal("unknown user found")
	}
}

func TestUsersSorted(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	for _, name := range []string{"zoe", "amy", "mia"} {
		mustRegister(t, e, name, 0, 1)
	}
	users := e.Users()
	if len(users) != 3 || users[0].Name != "amy" || users[2].Name != "zoe" {
		t.Fatalf("Users() = %v", users)
	}
}

func TestSubmitLocalDelivery(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 5)
	mustRegister(t, e, "bob", 0, 5)
	msg := mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")
	out, err := e.SubmitSync(msg)
	if err != nil || out != SentLocal {
		t.Fatalf("Submit = %v, %v", out, err)
	}
	a, _ := e.User("alice")
	b, _ := e.User("bob")
	if a.Balance != 4 || b.Balance != 6 {
		t.Fatalf("balances %v/%v, want 4/6", a.Balance, b.Balance)
	}
	if a.Sent != 1 {
		t.Fatalf("sent = %d", a.Sent)
	}
	if len(ft.local) != 1 || ft.local[0].user != "bob" {
		t.Fatalf("local deliveries = %v", ft.local)
	}
	if msg.ID() == "" {
		t.Fatal("message id not stamped")
	}
}

func TestSubmitPaidRemote(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 5)
	msg := mail.NewMessage(addr("alice@a.example"), addr("bob@b.example"), "s", "b")
	out, err := e.SubmitSync(msg)
	if err != nil || out != SentPaid {
		t.Fatalf("Submit = %v, %v", out, err)
	}
	if got := e.Credit()[1]; got != 1 {
		t.Fatalf("credit[1] = %d", got)
	}
	if len(ft.mails) != 1 || ft.mails[0].toIndex != 1 {
		t.Fatalf("transmitted = %+v", ft.mails)
	}
}

func TestSubmitUnpaidToNonCompliant(t *testing.T) {
	e, ft, _ := newEngine(t, 0, []bool{true, false, true}, nil)
	mustRegister(t, e, "alice", 0, 5)
	msg := mail.NewMessage(addr("alice@a.example"), addr("bob@b.example"), "s", "b")
	out, err := e.SubmitSync(msg)
	if err != nil || out != SentUnpaid {
		t.Fatalf("Submit = %v, %v", out, err)
	}
	a, _ := e.User("alice")
	if a.Balance != 5 || a.Sent != 0 {
		t.Fatalf("unpaid send charged the user: %+v", a)
	}
	if got := e.Credit()[1]; got != 0 {
		t.Fatalf("credit[1] = %d for unpaid send", got)
	}
	if len(ft.mails) != 1 {
		t.Fatal("unpaid mail not transmitted")
	}
}

func TestSubmitForeignDomain(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 5)
	msg := mail.NewMessage(addr("alice@a.example"), addr("x@outside.example"), "s", "b")
	out, err := e.SubmitSync(msg)
	if err != nil || out != SentUnpaid {
		t.Fatalf("Submit = %v, %v", out, err)
	}
	if ft.mails[0].toIndex != -1 || ft.mails[0].toDomain != "outside.example" {
		t.Fatalf("foreign routing = %+v", ft.mails[0])
	}
}

// TestSubmitRejections: each refused submission names its cause and
// moves no money: every balance, the pool and the credit array are as
// they were.
func TestSubmitRejections(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "poor", 0, 0)
	mustRegister(t, e, "bob", 0, 5)
	before := ledgerOf(e)
	for _, c := range []struct {
		what, from, to string
		want           error
	}{
		{"broke sender", "poor@a.example", "bob@a.example", ErrInsufficientBalance},
		{"unknown sender", "ghost@a.example", "bob@a.example", ErrUnknownUser},
		{"foreign sender", "alien@b.example", "bob@a.example", nil},
		{"unknown local recipient", "bob@a.example", "ghost@a.example", ErrUnknownUser},
	} {
		_, err := e.SubmitSync(mail.NewMessage(addr(c.from), addr(c.to), "s", "b"))
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Fatalf("%s: %v, want %v", c.what, err, c.want)
		}
		if after := ledgerOf(e); !after.equal(before) {
			t.Fatalf("%s: refused but the ledger moved:\n before %+v\n after  %+v", c.what, before, after)
		}
	}
}

func TestDailyLimit(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, func(c *Config) { c.DefaultLimit = 3 })
	mustRegister(t, e, "alice", 0, 100)
	mustRegister(t, e, "bob", 0, 1)
	for i := 0; i < 3; i++ {
		msg := mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")
		if _, err := e.SubmitSync(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	msg := mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")
	if _, err := e.SubmitSync(msg); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("over limit: %v", err)
	}
	if got := e.Stats().LimitRejects; got != 1 {
		t.Fatalf("limit rejects = %d", got)
	}
	e.EndOfDay()
	if _, err := e.SubmitSync(msg); err != nil {
		t.Fatalf("after EndOfDay: %v", err)
	}
}

func TestSetLimit(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 10)
	if err := e.SetLimit("alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.SetLimit("alice", 0); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero limit: %v", err)
	}
	if err := e.SetLimit("ghost", 5); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: %v", err)
	}
	msg := mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")
	if _, err := e.SubmitSync(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSync(msg.Clone()); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("tightened limit not enforced: %v", err)
	}
}

func TestReceiveRemotePaid(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "bob", 0, 5)
	msg := mail.NewMessage(addr("alice@b.example"), addr("bob@a.example"), "s", "b")
	if err := e.ReceiveRemote("b.example", msg); err != nil {
		t.Fatal(err)
	}
	b, _ := e.User("bob")
	if b.Balance != 6 {
		t.Fatalf("balance = %v, want 6 (receiver earns)", b.Balance)
	}
	if got := e.Credit()[1]; got != -1 {
		t.Fatalf("credit[1] = %d, want -1", got)
	}
	if len(ft.local) != 1 {
		t.Fatal("not delivered")
	}
}

func TestReceiveRemoteWrongISP(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	msg := mail.NewMessage(addr("x@b.example"), addr("y@c.example"), "s", "b")
	if err := e.ReceiveRemote("b.example", msg); err == nil {
		t.Fatal("accepted relay for another ISP's user")
	}
}

func TestUnpaidPolicies(t *testing.T) {
	nonCompliant := []bool{true, false, true}
	spam := func() *mail.Message {
		return mail.NewMessage(addr("bulk@b.example"), addr("bob@a.example"), "buy pills", "cheap pills")
	}

	// AcceptUnpaid (default).
	e, ft, _ := newEngine(t, 0, nonCompliant, nil)
	mustRegister(t, e, "bob", 0, 5)
	if err := e.ReceiveRemote("b.example", spam()); err != nil {
		t.Fatal(err)
	}
	if len(ft.local) != 1 {
		t.Fatal("accept policy dropped mail")
	}
	b, _ := e.User("bob")
	if b.Balance != 5 {
		t.Fatal("unpaid mail changed balance")
	}

	// TagUnpaid.
	e, ft, _ = newEngine(t, 0, nonCompliant, func(c *Config) { c.Policy = TagUnpaid })
	mustRegister(t, e, "bob", 0, 5)
	if err := e.ReceiveRemote("b.example", spam()); err != nil {
		t.Fatal(err)
	}
	if got := ft.local[0].msg.Header(HeaderUnpaid); got != "yes" {
		t.Fatalf("tag policy header = %q", got)
	}

	// RejectUnpaid.
	e, ft, _ = newEngine(t, 0, nonCompliant, func(c *Config) { c.Policy = RejectUnpaid })
	mustRegister(t, e, "bob", 0, 5)
	if err := e.ReceiveRemote("b.example", spam()); err != nil {
		t.Fatal(err)
	}
	if len(ft.local) != 0 {
		t.Fatal("reject policy delivered mail")
	}
	if e.Stats().Discarded != 1 {
		t.Fatal("discard not counted")
	}

	// FilterUnpaid.
	e, ft, _ = newEngine(t, 0, nonCompliant, func(c *Config) {
		c.Policy = FilterUnpaid
		c.Filter = func(m *mail.Message) bool { return m.Subject() != "buy pills" }
	})
	mustRegister(t, e, "bob", 0, 5)
	if err := e.ReceiveRemote("b.example", spam()); err != nil {
		t.Fatal(err)
	}
	ok := mail.NewMessage(addr("friend@b.example"), addr("bob@a.example"), "hello", "hi")
	if err := e.ReceiveRemote("b.example", ok); err != nil {
		t.Fatal(err)
	}
	if len(ft.local) != 1 || ft.local[0].msg.Subject() != "hello" {
		t.Fatalf("filter policy deliveries = %v", ft.local)
	}
}

func TestPaidMailBypassesPolicy(t *testing.T) {
	// Mail from a compliant peer must be delivered regardless of
	// policy: the sender paid.
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) { c.Policy = RejectUnpaid })
	mustRegister(t, e, "bob", 0, 5)
	msg := mail.NewMessage(addr("x@b.example"), addr("bob@a.example"), "buy pills", "spam text")
	if err := e.ReceiveRemote("b.example", msg); err != nil {
		t.Fatal(err)
	}
	if len(ft.local) != 1 {
		t.Fatal("paid mail was filtered — Zmail must not discard paid mail")
	}
}

func TestCheatMode(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 10)
	e.SetCheat(true)
	msg := mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")
	if _, err := e.SubmitSync(msg); err != nil {
		t.Fatal(err)
	}
	a, _ := e.User("alice")
	if a.Balance != 9 {
		t.Fatal("cheater must still charge its user")
	}
	if e.Credit()[1] != 0 {
		t.Fatal("cheater incremented credit")
	}
}
