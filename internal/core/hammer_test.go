package core

import (
	"testing"
	"time"

	"zmail/internal/bank"
	"zmail/internal/crypto"
	"zmail/internal/hammer"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/smtp"
	"zmail/internal/wire"
)

// TestNodeHammer calls every exported read of a Node and of the
// BankServer while one goroutine drives a two-node federation over
// loopback TCP: local and relayed SMTP mail in both directions, peer
// updates, the bank link's ticks and batch orders, and audit rounds
// with the freeze and report; the last round closes the node and the
// server. Under -race it is the check that every read takes n.mu,
// s.mu or a relay's r.mu.
func TestNodeHammer(t *testing.T) {
	const rounds = 60
	domains := []string{"alpha.example", "beta.example"}
	dir := isp.NewDirectory(domains, nil)
	bk, srv, err := StartBank(bank.Config{NumISPs: 2, InitialAccount: 1 << 30, OwnSealer: crypto.Null{}}, "127.0.0.1:0", quietLog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	var nodes [2]*Node
	for i := range nodes {
		if err := bk.Enroll(i, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(NodeConfig{
			Engine: isp.Config{
				Index: i, Domain: domains[i], Directory: dir,
				MinAvail: 1000, MaxAvail: 2000, InitialAvail: 5000, DefaultLimit: 1 << 30,
				FreezeDuration: 20 * time.Millisecond,
				BankSealer:     crypto.Null{}, OwnSealer: crypto.Null{},
			},
			ListenAddr:   "127.0.0.1:0",
			BankAddr:     srv.Addr().String(),
			TickInterval: 5 * time.Millisecond,
			Logf:         quietLog,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
	}
	for _, name := range []string{"alice", "carol"} {
		if err := nodes[0].Engine().RegisterUser(name, 1<<20, 400, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[1].Engine().RegisterUser("bob", 1<<20, 400, 0); err != nil {
		t.Fatal(err)
	}
	nodes[1].AddPeer(0, nodes[0].Addr().String())
	// Each node's pool starts above its band, so its first tick sells;
	// two sells mean both bank links are registered and an audit
	// request reaches both.
	waitFor(t, "both bank links", func() bool { return bk.Stats().Sells >= 2 })
	n := nodes[0]
	reg := metrics.NewRegistry()
	node := hammer.Target{V: n, Writers: []string{"AddPeer", "Close"}, Reads: map[string]func(){
		"Addr":    func() { _ = n.Addr() },
		"Collect": func() { n.Collect(reg) },
		"Engine":  func() { _ = n.Engine() },
		"Inbox":   func() { _ = n.Inbox("carol") },
	}}
	server := hammer.Target{V: srv, Writers: []string{"Close", "Listen", "SetForward"}, Reads: map[string]func(){
		"Addr":      func() { _ = srv.Addr() },
		"Transport": func() { _ = srv.Transport() },
	}}
	alice := mail.MustParseAddress("alice@alpha.example")
	bob := mail.MustParseAddress("bob@beta.example")
	carol := mail.MustParseAddress("carol@alpha.example")
	send := func(via *Node, from mail.Address, to ...mail.Address) {
		t.Helper()
		if err := smtp.SendMail(via.Addr().String(), from.Domain, from, to, mail.NewMessage(from, to[0], "s", "b"), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	hammer.Run(t, rounds, func(round int) {
		switch {
		case round >= rounds:
			return
		case round == rounds-1:
			waitFor(t, "the last audit round", bk.RoundComplete)
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			return
		case round == 0:
			srv.SetForward(func(*wire.Envelope) {})
		case round%10 == 5 && bk.RoundComplete() && !n.Engine().Frozen() && !nodes[1].Engine().Frozen():
			// An engine still in the last round's thaw guard would refuse
			// the request.
			if err := bk.StartSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
		n.AddPeer(1, nodes[1].Addr().String())
		send(n, alice, bob, carol)
		send(nodes[1], bob, alice)
		// Push the pool out of its band so the next tick orders.
		trade := n.Engine().BuyEPennies
		if round%2 == 1 {
			trade = n.Engine().SellEPennies
		}
		if err := trade("alice", 1000); err != nil {
			t.Fatal(err)
		}
	}, node, server)
	if len(n.Inbox("carol")) == 0 || bk.Stats().Rounds == 0 {
		t.Fatalf("the drive delivered no local mail or completed no audit round (%+v)", bk.Stats())
	}
}
