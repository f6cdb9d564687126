package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"zmail/internal/mail"
	"zmail/internal/promtext"
	"zmail/internal/smtp"
)

// Every wait in this file is a WaitFor poll with a deadline — never a
// fixed sleep — so the suite is fast on an idle machine and still
// correct on a loaded CI worker.
const testDeadline = 15 * time.Second

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return c
}

func userAddr(c *Cluster, ispIdx int, user int) mail.Address {
	return mail.Address{
		Local:  c.ISP(ispIdx).Users[user],
		Domain: c.ISP(ispIdx).Domain,
	}
}

// submit runs one SMTP transaction against the sender's own ISP — a
// paid submission entering via MAIL FROM = local user.
func submit(c *Cluster, fromISP, fromUser, toISP, toUser int, subject string) error {
	from := userAddr(c, fromISP, fromUser)
	to := userAddr(c, toISP, toUser)
	msg := mail.NewMessage(from, to, subject, "cluster test body")
	return smtp.SendMail(c.ISP(fromISP).SMTPAddr(), "client.test",
		from, []mail.Address{to}, msg, 5*time.Second)
}

func waitOr(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !WaitFor(testDeadline, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestClusterRefusesTreeSettlement: with more than one region the root
// verifies cross-region credit but no bank settles it, so New refuses
// Settle there rather than boot a federation that says nothing about
// the credit it leaves unsettled.
func TestClusterRefusesTreeSettlement(t *testing.T) {
	c, err := New(Config{Regions: 2, Settle: true})
	if err == nil {
		_ = c.Close()
		t.Fatal("New accepted Settle with two regions")
	}
	if !strings.Contains(err.Error(), "Settle") {
		t.Errorf("error %q does not name Settle", err)
	}
}

// TestClusterFederationEndToEnd is the flagship: two ISP daemons, two
// leaf banks, and a root aggregator — five processes' worth of state
// on five real TCP listeners — carrying paid mail in both directions,
// one multi-recipient transaction among it, then a federation-wide
// §4.4 audit verified at the root.
func TestClusterFederationEndToEnd(t *testing.T) {
	c := newTestCluster(t, Config{Regions: 2})

	if len(c.Banks()) != 2 || c.Root() == nil {
		t.Fatalf("want 2 leaf banks + root, got %d banks, root=%v", len(c.Banks()), c.Root())
	}

	const perDirection = 5
	for i := 0; i < perDirection; i++ {
		if err := submit(c, 0, 0, 1, 1, fmt.Sprintf("fwd %d", i)); err != nil {
			t.Fatalf("submit isp0→isp1 #%d: %v", i, err)
		}
		if err := submit(c, 1, 0, 0, 1, fmt.Sprintf("rev %d", i)); err != nil {
			t.Fatalf("submit isp1→isp0 #%d: %v", i, err)
		}
	}
	// An intra-ISP send exercises the local path alongside the relay.
	if err := submit(c, 0, 2, 0, 3, "local"); err != nil {
		t.Fatalf("submit isp0→isp0: %v", err)
	}
	// One transaction, three cross-ISP RCPTs: the three share one charge
	// of three and one relayed transaction, and each is credited and
	// delivered at the peer.
	from := userAddr(c, 0, 3)
	rcpts := []mail.Address{userAddr(c, 1, 0), userAddr(c, 1, 2), userAddr(c, 1, 3)}
	client, err := smtp.Dial(c.ISP(0).SMTPAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Hello("client.test"); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(from, rcpts, mail.NewMessage(from, rcpts[0], "list", "body")); err != nil {
		t.Fatalf("three-recipient send: %v", err)
	}
	multi := int64(len(rcpts))

	waitOr(t, "cross-ISP delivery", func() bool {
		return c.ISP(0).Delivered() >= perDirection+1 && c.ISP(1).Delivered() >= perDirection+multi
	})

	s0, s1 := c.ISP(0).Engine().Stats(), c.ISP(1).Engine().Stats()
	if s0.SentPaid < perDirection+multi || s1.SentPaid < perDirection {
		t.Fatalf("paid sends: isp0=%d isp1=%d, want ≥%d and ≥%d", s0.SentPaid, s1.SentPaid, perDirection+multi, perDirection)
	}
	if s0.ReceivedPaid < perDirection || s1.ReceivedPaid < perDirection+multi {
		t.Fatalf("paid receives: isp0=%d isp1=%d", s0.ReceivedPaid, s1.ReceivedPaid)
	}

	// E-penny conservation across every ledger in the federation —
	// experiment E1's invariant, now summed over TCP-separated daemons.
	waitOr(t, "e-penny conservation", c.Conserved)

	// Audit: both leaves snapshot their region, the root joins the two
	// forwarded reports and verifies the cross-region pair.
	if err := c.TriggerAudit(); err != nil {
		t.Fatal(err)
	}
	waitOr(t, "audit round completion (leaves + root)", c.AuditComplete)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("honest federation flagged: %v", v)
	}
	if st := c.Root().Stats(); st.CrossPairs == 0 || st.Reports != 2 {
		t.Fatalf("root verified nothing: %+v", st)
	}

	// The wipe-on-report cancels pairwise, so conservation must hold
	// after the round too.
	waitOr(t, "conservation after audit", c.Conserved)
}

// TestClusterBatchedFederation boots the batch-first federation: every
// ISP runs the admission queue (SMTP DATA returns at admission) and
// coalesced bank orders, and the bank settles verified rounds with
// multilateral netting. Paid mail flows, pools restock through
// BatchOrder round trips, audits verify, settlement moves real money,
// and conservation holds throughout.
func TestClusterBatchedFederation(t *testing.T) {
	c := newTestCluster(t, Config{
		BatchOrders: true,
		Queue:       true,
		Settle:      true,
		// Registration funds user balances from the pool (4 × 200), so a
		// 1500-e-penny pool lands at 700 — below the default MinAvail of
		// 1000 — and the very first tick issues a batch restock order.
		InitialAvail: 1500,
	})

	const perDirection = 5
	for i := 0; i < perDirection; i++ {
		if err := submit(c, 0, 0, 1, 1, fmt.Sprintf("fwd %d", i)); err != nil {
			t.Fatalf("submit isp0→isp1 #%d: %v", i, err)
		}
		if err := submit(c, 1, 0, 0, 1, fmt.Sprintf("rev %d", i)); err != nil {
			t.Fatalf("submit isp1→isp0 #%d: %v", i, err)
		}
	}
	waitOr(t, "queued cross-ISP delivery", func() bool {
		return c.ISP(0).Delivered() >= perDirection && c.ISP(1).Delivered() >= perDirection
	})
	// The submissions really went through the admission queue.
	for i := 0; i < 2; i++ {
		if qs := c.ISP(i).Engine().QueueStats(); qs.Enqueued < perDirection || qs.Committed < perDirection {
			t.Fatalf("isp[%d] queue stats = %+v, want ≥%d enqueued+committed", i, qs, perDirection)
		}
	}
	// Pool maintenance went over the batch path: both ISPs boot below
	// MinAvail, so the bank must see coalesced BatchOrder envelopes.
	waitOr(t, "batch restock traffic", func() bool {
		return c.Banks()[0].Bank().Stats().BatchOrders >= 2
	})
	waitOr(t, "conservation with batch restocks", c.Conserved)

	// An audit round settles the period's net flow with group netting.
	if err := c.TriggerAudit(); err != nil {
		t.Fatal(err)
	}
	waitOr(t, "audit round completion", c.AuditComplete)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("honest federation flagged: %v", v)
	}
	waitOr(t, "conservation after settled audit", c.Conserved)
	// Real-money conservation: mints move pennies out of ISP accounts
	// into circulation (Outstanding) and netted settlement only shuffles
	// between accounts, so accounts + circulation stays at the seed.
	bk := c.Banks()[0].Bank()
	if got := int64(bk.TotalAccounts()) + bk.Outstanding(); got != int64(numISPs*ispFunds) {
		t.Fatalf("real-money conservation: accounts+outstanding = %d, want %d",
			got, numISPs*ispFunds)
	}
}

// TestClusterZombieLimit drives one sender through its daily limit
// over real SMTP: the first `limit` messages go through, the next draws
// a 554 at DATA time, and the postmaster zombie warning lands in the
// sender's own mailbox (§5's containment behavior).
func TestClusterZombieLimit(t *testing.T) {
	const limit = 3
	c := newTestCluster(t, Config{DailyLimit: limit})

	from := userAddr(c, 0, 0)
	to := userAddr(c, 1, 0)
	client, err := smtp.Dial(c.ISP(0).SMTPAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Hello("client.test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < limit; i++ {
		msg := mail.NewMessage(from, to, fmt.Sprintf("paid %d", i), "body")
		if err := client.Send(from, []mail.Address{to}, msg); err != nil {
			t.Fatalf("send %d/%d under the limit: %v", i+1, limit, err)
		}
	}
	msg := mail.NewMessage(from, to, "over the limit", "body")
	err = client.Send(from, []mail.Address{to}, msg)
	var pe *smtp.ProtocolError
	if !errors.As(err, &pe) || pe.Code != 550 {
		t.Fatalf("over-limit send: got %v, want 550 delivery failure", err)
	}

	// The session survives the rejection: RSET, and the next transaction
	// from a different (under-limit) user succeeds on the same socket.
	if err := client.Reset(); err != nil {
		t.Fatalf("RSET after rejection: %v", err)
	}
	from2 := userAddr(c, 0, 1)
	msg2 := mail.NewMessage(from2, to, "fresh sender", "body")
	if err := client.Send(from2, []mail.Address{to}, msg2); err != nil {
		t.Fatalf("send from fresh user after RSET: %v", err)
	}

	waitOr(t, "paid deliveries at isp1", func() bool {
		return c.ISP(1).Delivered() >= limit+1
	})
	// The warning is local mail at the sender's ISP.
	waitOr(t, "zombie warning delivery", func() bool {
		return c.ISP(0).Engine().Stats().ZombieWarnings >= 1 && c.ISP(0).Delivered() >= 1
	})
	st := c.ISP(0).Engine().Stats()
	if st.LimitRejects < 1 {
		t.Fatalf("limit rejects = %d, want ≥1", st.LimitRejects)
	}
	waitOr(t, "conservation with rejected traffic", c.Conserved)
}

// TestClusterWALRestartRecovery kills an ISP daemon mid-run and boots
// a replacement from its write-ahead log on fresh ephemeral ports. The
// recovered ledger must match the pre-crash one exactly, and the
// federation must keep carrying paid mail — and conserving e-pennies —
// through the new daemon.
func TestClusterWALRestartRecovery(t *testing.T) {
	c := newTestCluster(t, Config{WALDir: t.TempDir()})

	const before = 4
	for i := 0; i < before; i++ {
		if err := submit(c, 0, 0, 1, 0, fmt.Sprintf("pre %d", i)); err != nil {
			t.Fatalf("pre-restart submit %d: %v", i, err)
		}
		if err := submit(c, 1, 1, 0, 1, fmt.Sprintf("pre-rev %d", i)); err != nil {
			t.Fatalf("pre-restart reverse submit %d: %v", i, err)
		}
	}
	waitOr(t, "pre-restart delivery", func() bool {
		return c.ISP(1).Delivered() >= before && c.ISP(0).Delivered() >= before
	})
	waitOr(t, "pre-restart conservation", c.Conserved)

	wantTotal := c.ISP(0).Engine().TotalEPennies()
	wantUsers := c.ISP(0).Engine().Users()
	oldAddr := c.ISP(0).SMTPAddr()

	if err := c.RestartISP(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if c.ISP(0).SMTPAddr() == oldAddr {
		t.Logf("note: restarted daemon re-bound the same ephemeral port %s", oldAddr)
	}

	if got := c.ISP(0).Engine().TotalEPennies(); got != wantTotal {
		t.Fatalf("recovered ledger total = %d, want %d", got, wantTotal)
	}
	gotUsers := c.ISP(0).Engine().Users()
	if len(gotUsers) != len(wantUsers) {
		t.Fatalf("recovered %d users, want %d", len(gotUsers), len(wantUsers))
	}
	for i := range wantUsers {
		if gotUsers[i] != wantUsers[i] {
			t.Fatalf("user %d recovered as %+v, want %+v", i, gotUsers[i], wantUsers[i])
		}
	}

	// The recovered daemon keeps its place in the federation: it can
	// send, and — after the peer mesh re-wiring — receive.
	const after = 3
	for i := 0; i < after; i++ {
		if err := submit(c, 0, 0, 1, 0, fmt.Sprintf("post %d", i)); err != nil {
			t.Fatalf("post-restart submit %d: %v", i, err)
		}
		if err := submit(c, 1, 1, 0, 1, fmt.Sprintf("post-rev %d", i)); err != nil {
			t.Fatalf("post-restart reverse submit %d: %v", i, err)
		}
	}
	waitOr(t, "post-restart delivery", func() bool {
		return c.ISP(1).Delivered() >= before+after && c.ISP(0).Delivered() >= before+after
	})
	waitOr(t, "post-restart conservation", c.Conserved)

	// Sent counters persisted through the WAL: the pre-restart sends
	// still count against the daily limit.
	for _, u := range c.ISP(0).Engine().Users() {
		if u.Name == c.ISP(0).Users[0] && u.Sent < before+after {
			t.Fatalf("user %s Sent=%d, want ≥%d (WAL lost pre-restart sends)", u.Name, u.Sent, before+after)
		}
	}
}

// TestClusterMetricsSurface checks the scrape surface every daemon
// serves: /healthz reports the actually-bound ephemeral address, each
// /metrics parses as a Prometheus exposition with its engine, bank or
// root families, and the scraped paid counters reconcile — every paid
// send was received, and each ISP's series is its engine's own count.
func TestClusterMetricsSurface(t *testing.T) {
	c := newTestCluster(t, Config{Regions: 2})

	addrs := c.MetricsAddrs()
	// 2 ISPs + 2 leaves + 1 root.
	if len(addrs) != 5 {
		t.Fatalf("metrics addrs = %v, want 5", addrs)
	}
	if err := submit(c, 0, 0, 1, 0, "scrape me"); err != nil {
		t.Fatal(err)
	}
	if err := submit(c, 1, 1, 0, 1, "scrape me back"); err != nil {
		t.Fatal(err)
	}
	waitOr(t, "delivery before scrape", func() bool {
		return c.ISP(0).Delivered() >= 1 && c.ISP(1).Delivered() >= 1
	})

	get := func(addr, path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	scrapes := make(map[string]*promtext.Scrape, len(addrs))
	for _, addr := range addrs {
		if body := get(addr, "/healthz"); !strings.Contains(body, "addr="+addr) {
			t.Fatalf("%s /healthz missing bound addr line:\n%s", addr, body)
		}
		scrape, err := promtext.ParseProm(strings.NewReader(get(addr, "/metrics")))
		if err != nil {
			t.Fatalf("%s /metrics: %v", addr, err)
		}
		scrapes[addr] = scrape
	}

	hasFamily := func(addr, prefix string) bool {
		for name := range scrapes[addr].Families {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for r, b := range c.Banks() {
		if !hasFamily(b.MetricsAddr().String(), "zmail_bank_") {
			t.Errorf("bank[%d] scrape has no zmail_bank_* family", r)
		}
	}
	if rootAddr := addrs[len(addrs)-1]; !hasFamily(rootAddr, "zmail_root_") {
		t.Errorf("root scrape has no zmail_root_* family")
	}

	// value reads one ISP's scraped series and checks it against the
	// engine's own count.
	value := func(d *ISP, name string, engine int64) float64 {
		t.Helper()
		v, ok := scrapes[d.MetricsAddr()].Value(name, map[string]string{"isp": d.Domain})
		if !ok {
			t.Fatalf("%s scrape has no %s series", d.Domain, name)
		}
		if v != float64(engine) {
			t.Errorf("%s scraped %s = %v, engine says %d", d.Domain, name, v, engine)
		}
		return v
	}
	var sent, received float64
	for i := 0; i < numISPs; i++ {
		d := c.ISP(i)
		if !hasFamily(d.MetricsAddr(), "zmail_isp_") {
			t.Errorf("isp[%d] scrape has no zmail_isp_* family", i)
		}
		st := d.Engine().Stats()
		sent += value(d, "zmail_isp_sent_paid_total", st.SentPaid)
		received += value(d, "zmail_isp_received_paid_total", st.ReceivedPaid)
	}
	if sent == 0 || sent != received {
		t.Fatalf("scraped paid sends %v, paid receives %v: want equal and nonzero", sent, received)
	}
}
