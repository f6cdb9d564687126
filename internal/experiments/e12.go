package experiments

import (
	"fmt"
	"time"

	"zmail/internal/bank"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/smtp"
)

// E12 — unmodified SMTP end to end (§1.3): two real Zmail daemons and a
// bank daemon on loopback TCP, booted as zmaild and zbank boot them,
// real RSA sealed boxes, a message submitted with a plain SMTP client,
// payment settled, and a snapshot round audited over the wire.
func E12(_ int64) (*Result, error) {
	domains := []string{"alpha.example", "beta.example"}
	dir := isp.NewDirectory(domains, nil)

	bankBox, err := crypto.GenerateBox(1024, nil)
	if err != nil {
		return nil, err
	}
	var ispBoxes [2]*crypto.Box
	for i := range ispBoxes {
		if ispBoxes[i], err = crypto.GenerateBox(1024, nil); err != nil {
			return nil, err
		}
	}

	quiet := func(string, ...any) {}
	bd, err := core.StartBankDaemon(core.BankDaemonConfig{
		Bank: bank.Config{
			NumISPs:        2,
			InitialAccount: 1_000_000,
			OwnSealer:      bankBox,
		},
		ListenAddr: "127.0.0.1:0",
		Enroll:     map[int]crypto.Sealer{0: ispBoxes[0], 1: ispBoxes[1]},
		Logf:       quiet,
	})
	if err != nil {
		return nil, err
	}
	defer bd.Close()
	bk := bd.Bank()

	users := [][]core.User{
		{{Name: "alice", Account: 1000, Balance: 50, Limit: 100}},
		{{Name: "bob", Account: 1000, Balance: 50, Limit: 100}},
	}
	nodes := make([]*core.Node, 2)
	for i := range nodes {
		d, err := core.StartISPDaemon(core.ISPDaemonConfig{
			Node: core.NodeConfig{
				Engine: isp.Config{
					Index:          i,
					Domain:         domains[i],
					Directory:      dir,
					MinAvail:       100,
					MaxAvail:       100_000,
					InitialAvail:   10_000,
					FreezeDuration: 150 * time.Millisecond,
					BankSealer:     bankBox.PublicOnly(),
					OwnSealer:      ispBoxes[i],
				},
				ListenAddr:   "127.0.0.1:0",
				BankAddr:     bd.Addr().String(),
				TickInterval: 50 * time.Millisecond,
				Logf:         quiet,
			},
			Users: users[i],
		})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		nodes[i] = d.Node()
	}
	// Exchange peer addresses now that both listeners are bound.
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].AddPeer(j, nodes[j].Addr().String())
			}
		}
	}

	alice := mail.MustParseAddress("alice@alpha.example")
	bob := mail.MustParseAddress("bob@beta.example")
	msg := mail.NewMessage(alice, bob, "over real SMTP", "paid with one e-penny")

	// Submit via a plain SMTP client, as any 2004 mail program would.
	if err := smtp.SendMail(nodes[0].Addr().String(), "alpha.example", alice, []mail.Address{bob}, msg, 5*time.Second); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	// Wait for cross-ISP relay and delivery.
	if !waitUntil(3*time.Second, func() bool { return len(nodes[1].Inbox("bob")) == 1 }) {
		return nil, fmt.Errorf("message never delivered to bob")
	}

	aliceInfo, _ := nodes[0].Engine().User("alice")
	bobInfo, _ := nodes[1].Engine().User("bob")
	credit0 := nodes[0].Engine().Credit()
	credit1 := nodes[1].Engine().Credit()

	// Run a snapshot audit over TCP.
	if err := bk.StartSnapshot(); err != nil {
		return nil, err
	}
	if !waitUntil(3*time.Second, bk.RoundComplete) {
		return nil, fmt.Errorf("snapshot round never completed")
	}

	got := nodes[1].Inbox("bob")[0]
	table := metrics.NewTable("E12: two zmaild daemons + zbank over loopback TCP (real RSA boxes)",
		"check", "value", "pass")
	pass := true
	addRow := func(name string, value any, ok bool) {
		pass = pass && ok
		table.AddRow(name, value, ok)
	}
	addRow("delivered body", got.Body, got.Body == "paid with one e-penny")
	addRow("alice balance (50-1)", aliceInfo.Balance, aliceInfo.Balance == 49)
	addRow("bob balance (50+1)", bobInfo.Balance, bobInfo.Balance == 51)
	addRow("alpha credit vs beta (+1)", credit0[1], credit0[1] == 1)
	addRow("beta credit vs alpha (-1)", credit1[0], credit1[0] == -1)
	addRow("audit violations", len(bk.Violations()), len(bk.Violations()) == 0)
	addRow("audit rounds completed", bk.Stats().Rounds, bk.Stats().Rounds == 1)

	return &Result{
		ID:    "E12",
		Title: "Zmail runs over unmodified SMTP on real sockets",
		Table: table,
		Pass:  pass,
		Notes: "submission used a stock SMTP client; payment, credit arrays and the audit all settled over TCP",
	}, nil
}

// waitUntil polls cond until it holds or the timeout expires. E12 runs
// real daemons on real sockets, so this is genuine wall-clock waiting:
// the timing bounds retries only and never reaches the report output.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
