package zmail_test

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"zmail"
)

// The tours of the paper. `go test -run '^Example' -v .` runs them and
// checks what each prints against its Output block; the live-SMTP tour
// is `go run ./cmd/zsim -experiment E12`.

// row prints one line of a left-aligned table. Padding leaves blanks
// after the last column, and an Output block cannot hold trailing
// blanks, so row trims them.
func row(format string, args ...any) {
	fmt.Println(strings.TrimRight(fmt.Sprintf(format, args...), " "))
}

// ExampleNewWorld is README's library quick start.
func ExampleNewWorld() {
	// A deterministic in-process federation: 2 compliant ISPs + bank.
	w, _ := zmail.NewWorld(zmail.WorldConfig{NumISPs: 2, UsersPerISP: 2})

	// u0@isp0 pays one e-penny to u0@isp1.
	w.Send("u0@isp0.example", "u0@isp1.example", "hi", "paid mail")
	w.Run() // drain the simulated network

	// Receiver earned the e-penny; totals are conserved.
	bob, _ := w.Engine(1).User("u0")
	fmt.Println(bob.Balance, w.ConservationHolds())

	// Audit the federation (the paper's §4.4 snapshot).
	w.SnapshotRound()
	fmt.Println(w.Bank.Violations()) // [] — everyone honest
	// Output:
	// 101e¢ true
	// []
}

// Example_quickstart is a two-ISP Zmail federation in one process.
//
// It builds a deterministic in-process world (two compliant ISPs, a
// central bank), sends paid mail both ways, injects spam from a
// non-compliant outsider, and prints the resulting ledgers — showing
// the paper's core mechanic: senders pay one e-penny, receivers earn
// it, and spam becomes income.
func Example_quickstart() {
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        2,
		UsersPerISP:    2,
		InitialBalance: 20,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Zmail quickstart: 2 compliant ISPs + central bank ==")
	fmt.Println()

	// Alice (u0@isp0) writes to Bob (u0@isp1); Bob replies.
	send := func(from, to, subject string) {
		outcome, err := w.Send(from, to, subject, "hello from "+from)
		if err != nil {
			log.Fatalf("send %s -> %s: %v", from, to, err)
		}
		fmt.Printf("  %-18s -> %-18s  [%s]\n", from, to, outcome)
	}
	send("u0@isp0.example", "u0@isp1.example", "hi bob")
	send("u0@isp1.example", "u0@isp0.example", "re: hi bob")
	send("u0@isp0.example", "u1@isp0.example", "local note")

	// A spammer outside the federation blasts everyone, unpaid.
	for _, victim := range []string{"u0@isp0.example", "u1@isp0.example", "u0@isp1.example"} {
		if err := w.InjectUnpaid("bulk-offers.example", victim, "MEGA OFFER", "buy now"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("  bulk-offers.example sprayed 3 unpaid messages into the federation")

	// Drain the simulated network to quiescence.
	w.Run()

	fmt.Println("\n== ledgers after delivery ==")
	for i := 0; i < 2; i++ {
		eng := w.Engine(i)
		fmt.Printf("\n%s (pool %v):\n", eng.Domain(), eng.Avail())
		for _, u := range eng.Users() {
			fmt.Printf("  %-4s balance=%-5v sent-today=%d inbox=%d\n",
				u.Name, u.Balance, u.Sent,
				w.InboxCount(u.Name+"@"+eng.Domain()))
		}
		fmt.Printf("  credit array vs peers: %v\n", eng.Credit())
	}

	// The zero-sum property, checked end to end.
	fmt.Printf("\nzero-sum check: total e-pennies %d (initial %d + bank net mint %d) — conserved: %v\n",
		w.TotalEPennies(), w.InitialEPennies(), w.Bank.Outstanding(), w.ConservationHolds())

	// Run a bank audit round over the (simulated) wire.
	if err := w.SnapshotRound(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bank audit: %d round(s) completed, %d violation(s) — every ISP honest\n",
		w.Bank.Stats().Rounds, len(w.Bank.Violations()))

	// The paper's "transparent economics": every user can pull a
	// statement of the payments made on their behalf.
	fmt.Println()
	fmt.Print(w.Engine(0).FormatStatement("u0"))
	// Output:
	// == Zmail quickstart: 2 compliant ISPs + central bank ==
	//
	//   u0@isp0.example    -> u0@isp1.example     [paid]
	//   u0@isp1.example    -> u0@isp0.example     [paid]
	//   u0@isp0.example    -> u1@isp0.example     [local]
	//   bulk-offers.example sprayed 3 unpaid messages into the federation
	//
	// == ledgers after delivery ==
	//
	// isp0.example (pool 1000e¢):
	//   u0   balance=19e¢  sent-today=2 inbox=2
	//   u1   balance=21e¢  sent-today=0 inbox=2
	//   credit array vs peers: [0 0]
	//
	// isp1.example (pool 1000e¢):
	//   u0   balance=20e¢  sent-today=1 inbox=2
	//   u1   balance=20e¢  sent-today=0 inbox=0
	//   credit array vs peers: [0 0]
	//
	// zero-sum check: total e-pennies 2080 (initial 2080 + bank net mint 0) — conserved: true
	// bank audit: 1 round(s) completed, 0 violation(s) — every ISP honest
	//
	// Statement for u0@isp0.example
	//   #1 2004-11-09 11:33:20 sent      -1e¢ ↔ u0@isp1.example (<1.isp0.example>)
	//   #2 2004-11-09 11:33:20 sent      -1e¢ ↔ u1@isp0.example (<2.isp0.example>)
	//   #4 2004-11-09 11:33:20 received  +1e¢ ↔ u0@isp1.example (<1.isp1.example>)
	//   balance 19e¢, account $10.00, sent today 2/1000
}

// Example_spameconomics is the paper's §1.2 market argument, quantified.
//
// It prices the reference 2004 spam campaign (one million messages,
// $0.0001/message infrastructure, 0.005% response rate, $20 margin per
// response) under plain SMTP and under Zmail, sweeps the e-penny price
// over the aggregate spammer population, and prints the supply curve —
// who keeps spamming, and at what price the market clears them out.
func Example_spameconomics() {
	fmt.Println("== the reference 2004 spam campaign ==")
	ref := zmail.ReferenceCampaign2004()
	fmt.Printf("  %d messages, $%.4f/msg infra, %.3f%% response, $%.0f margin\n\n",
		ref.Messages, ref.InfraCostPerMsg, 100*ref.ResponseRate, ref.RevenuePerResponse)

	row("%-14s %-12s %-12s %-16s %-10s",
		"e-penny $", "cost/msg", "total cost", "break-even rate", "profit")
	for _, price := range []float64{0, 0.001, 0.01, 0.05} {
		c := ref.WithEPennyPrice(price)
		row("%-14.3f $%-11.5f $%-11.0f %-16.2e $%-10.0f",
			price, c.CostPerMessage(), c.TotalCost(), c.BreakEvenResponseRate(), c.Profit())
	}

	c := ref.WithEPennyPrice(0.01)
	fmt.Printf("\nat the paper's $0.01 e-penny: cost rises %.0fx, break-even response rate rises %.0fx\n",
		c.CostIncreaseFactor(0.01),
		c.BreakEvenResponseRate()/ref.BreakEvenResponseRate())
	fmt.Println(`(the paper: "the cost of sending spam will increase by at least two orders of magnitude")`)

	fmt.Println("\n== aggregate spam supply: 200 heterogeneous spammers ==")
	m := zmail.MarketModel{Seed: 42}
	prices := []float64{0, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.10}
	row("%-12s %-16s %-16s", "price $", "spam/day", "active spammers")
	var free int64
	for _, pt := range m.Supply(prices) {
		if pt.PriceDollars == 0 {
			free = pt.TotalSpam
		}
		bar := ""
		if free > 0 {
			n := int(40 * pt.TotalSpam / free)
			for i := 0; i < n; i++ {
				bar += "#"
			}
		}
		row("%-12.4f %-16d %-16d %s", pt.PriceDollars, pt.TotalSpam, pt.ActiveSpammers, bar)
	}
	fmt.Println("\nbulk advertising survives only where it is targeted enough to pay its way —")
	fmt.Println("exactly the incentive shift the paper predicts.")
	// Output:
	// == the reference 2004 spam campaign ==
	//   1000000 messages, $0.0001/msg infra, 0.005% response, $20 margin
	//
	// e-penny $      cost/msg     total cost   break-even rate  profit
	// 0.000          $0.00010     $100         5.00e-06         $900
	// 0.001          $0.00110     $1100        5.50e-05         $-100
	// 0.010          $0.01010     $10100       5.05e-04         $-9100
	// 0.050          $0.05010     $50100       2.51e-03         $-49100
	//
	// at the paper's $0.01 e-penny: cost rises 101x, break-even response rate rises 101x
	// (the paper: "the cost of sending spam will increase by at least two orders of magnitude")
	//
	// == aggregate spam supply: 200 heterogeneous spammers ==
	// price $      spam/day         active spammers
	// 0.0000       195309171        197              ########################################
	// 0.0001       97353748         191              ###################
	// 0.0010       14897564         105              ###
	// 0.0050       763222           10
	// 0.0100       0                0
	// 0.0500       0                0
	// 0.1000       0                0
	//
	// bulk advertising survives only where it is targeted enough to pay its way —
	// exactly the incentive shift the paper predicts.
}

// Example_mailinglist is the §5 acknowledgment economy of mailing
// lists under Zmail.
//
// A distributor on isp0 fans each posting out to subscribers across the
// federation, paying one e-penny per copy. Subscribers' ISPs
// automatically acknowledge each delivered list message, refunding the
// e-penny — so a live list costs the distributor nothing — and
// addresses that stop acknowledging are pruned from the roster.
func Example_mailinglist() {
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        3,
		UsersPerISP:    4,
		InitialBalance: 50,
		DefaultLimit:   10_000,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The distributor is a dedicated mailbox with a generous limit.
	listAddr := zmail.MustParseAddress("announce@isp0.example")
	if err := w.Engine(0).RegisterUser("announce", 1000, 100, 100_000); err != nil {
		log.Fatal(err)
	}
	dist, err := zmail.NewDistributor(zmail.DistributorConfig{
		Address: listAddr,
		Submit: func(msg *zmail.Message) error {
			_, err := w.Engine(0).SubmitSync(msg)
			return err
		},
		PruneAfter: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Acknowledgments addressed to the distributor are machine mail;
	// route them to the distributor instead of a human inbox.
	w.SetAckSink(listAddr.String(), dist.HandleAck)

	// Subscribers across all three ISPs, plus two dead foreign
	// addresses that will never acknowledge.
	for i := 0; i < 3; i++ {
		for u := 0; u < 4; u++ {
			if err := dist.Subscribe(zmail.MustParseAddress(w.UserAddr(i, u))); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, ghost := range []string{"ghost1@defunct.example", "ghost2@defunct.example"} {
		if err := dist.Subscribe(zmail.MustParseAddress(ghost)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("== mailing list: 12 live + 2 dead subscribers, PruneAfter=2 ==")
	row("%-9s %-12s %-12s %-10s %-14s %-8s",
		"posting", "subscribers", "copies sent", "acks", "net e-pennies", "pruned")
	poster := zmail.MustParseAddress(w.UserAddr(0, 0))
	for p := 1; p <= 5; p++ {
		post := zmail.NewMessage(poster, listAddr, fmt.Sprintf("issue %d", p), "newsletter content")
		if err := dist.Submit(post); err != nil {
			log.Fatal(err)
		}
		w.Run() // fan-out, deliveries, automatic acks
		st := dist.Stats()
		row("%-9d %-12d %-12d %-10d %-14d %-8d",
			p, len(dist.Subscribers()), st.Distributed, st.AcksReceived, dist.NetEPennies(), st.Pruned)
	}

	st := dist.Stats()
	fmt.Printf("\nfinal: %d copies sent, %d e-pennies recovered, net cost %d e-pennies\n",
		st.Distributed, st.EPenniesBack, st.EPenniesSpent-st.EPenniesBack)
	fmt.Printf("dead addresses pruned: %d (roster is now self-cleaning, per §5 of the paper)\n", st.Pruned)

	// Every subscriber broke even too: +1 on delivery, -1 on the ack.
	u, _ := w.Engine(1).User("u0")
	fmt.Printf("subscriber u0@isp1.example balance: %v (started 50 — list membership is free)\n", u.Balance)
	// Output:
	// == mailing list: 12 live + 2 dead subscribers, PruneAfter=2 ==
	// posting   subscribers  copies sent  acks       net e-pennies  pruned
	// 1         14           14           12         -2             0
	// 2         14           28           24         -4             0
	// 3         12           40           36         -4             2
	// 4         12           52           48         -4             2
	// 5         12           64           60         -4             2
	//
	// final: 64 copies sent, 60 e-pennies recovered, net cost 4 e-pennies
	// dead addresses pruned: 2 (roster is now self-cleaning, per §5 of the paper)
	// subscriber u0@isp1.example balance: 50e¢ (started 50 — list membership is free)
}

// Example_zombie is the §5 daily-limit containment of a zombie
// outbreak.
//
// It simulates a 200-machine botnet sending at machine speed for a
// day, with and without Zmail's per-user daily limit, then shows the
// same mechanism inside a live protocol engine: an infected account
// hits its limit, further mail is blocked, and the ISP knows exactly
// which account to warn.
func Example_zombie() {
	fmt.Println("== 200-machine outbreak, 600 msgs/hour each, one day ==")
	row("%-18s %-12s %-12s %-12s %-10s %-14s",
		"daily limit", "attempted", "delivered", "blocked", "detected", "owner cost")
	for _, limit := range []int64{0, 100, 500, 2000} {
		z := zmail.ZombieModel{Machines: 200, SendRatePerHour: 600, DailyLimit: limit, Seed: 7}
		out := z.RunDay()
		name := "off (plain SMTP)"
		if limit > 0 {
			name = fmt.Sprint(limit)
		}
		row("%-18s %-12d %-12d %-12d %-10d %-14s",
			name, out.Attempted, out.Delivered, out.Blocked,
			out.DetectedMachines, fmt.Sprintf("%d e-pennies", out.OwnerCostEPennies))
	}
	fmt.Println("\nwith no limit the botnet delivers everything, silently and for free.")
	fmt.Println("with a limit the damage is capped, the owner's liability is bounded,")
	fmt.Println("and every infected machine is detected within about an hour.")

	// Now the same mechanism in a real protocol engine.
	fmt.Println("\n== live engine: infected account hits its limit ==")
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        2,
		UsersPerISP:    2,
		InitialBalance: 1000,
		DefaultLimit:   25, // the user's declared daily spend ceiling
		Seed:           3,
	})
	if err != nil {
		log.Fatal(err)
	}
	blocked := 0
	sentOK := 0
	for i := 0; i < 60; i++ { // virus tries 60 sends
		_, err := w.Send("u0@isp0.example", "u0@isp1.example", "worm payload", "malware")
		switch {
		case err == nil:
			sentOK++
		case errors.Is(err, zmail.ErrLimitExceeded):
			blocked++
		default:
			log.Fatal(err)
		}
	}
	w.Run()
	u, _ := w.Engine(0).User("u0")
	fmt.Printf("virus attempted 60 sends: %d delivered, %d blocked by the limit\n", sentOK, blocked)
	fmt.Printf("owner's liability: %d e-pennies (balance %v of 1000 remains)\n", u.Sent, u.Balance)
	fmt.Printf("the ISP's limit-reject counter (%d) is the §5 zombie-detection signal\n",
		w.Engine(0).Stats().LimitRejects)
	// Output:
	// == 200-machine outbreak, 600 msgs/hour each, one day ==
	// daily limit        attempted    delivered    blocked      detected   owner cost
	// off (plain SMTP)   2919142      2919142      0            0          0 e-pennies
	// 100                2919142      20000        2899142      200        20000 e-pennies
	// 500                2919142      100000       2819142      200        100000 e-pennies
	// 2000               2919142      400000       2519142      200        400000 e-pennies
	//
	// with no limit the botnet delivers everything, silently and for free.
	// with a limit the damage is capped, the owner's liability is bounded,
	// and every infected machine is detected within about an hour.
	//
	// == live engine: infected account hits its limit ==
	// virus attempted 60 sends: 25 delivered, 35 blocked by the limit
	// owner's liability: 25 e-pennies (balance 975e¢ of 1000 remains)
	// the ISP's limit-reject counter (35) is the §5 zombie-detection signal
}

// Example_deployment is the paper's incremental-adoption argument
// (§1.3, §5).
//
// It starts the federation with just two compliant ISPs ("Zmail can be
// bootstrapped with as few as two compliant ISPs") and simulates the
// positive-feedback loop: compliant-ISP users see almost no spam, users
// migrate toward the better experience, and ISPs follow their
// customers.
func Example_deployment() {
	m := zmail.AdoptionModel{
		ISPs:             20,
		InitialCompliant: 2,
		UsersPerISP:      1000,
		AmbientSpam:      100, // spam per user per week, 2004-style
		Seed:             11,
	}
	traj := m.Run(30)

	fmt.Println("== adoption from a 2-ISP bootstrap (20 ISPs, 20k users) ==")
	row("%-7s %-16s %-20s %-22s %-18s",
		"round", "compliant ISPs", "compliant user share", "spam/user (compliant)", "spam/user (other)")
	for _, p := range traj {
		if p.Round%2 != 0 {
			continue
		}
		bar := strings.Repeat("#", int(40*p.CompliantUserFrac))
		row("%-7d %-16d %-20s %-22.1f %-18.1f %s",
			p.Round, p.CompliantISPs,
			fmt.Sprintf("%.1f%%", 100*p.CompliantUserFrac),
			p.MeanSpamCompliant, p.MeanSpamOther, bar)
	}

	fmt.Println()
	if tip := zmail.TippingRound(traj, 0.5); tip > 0 {
		fmt.Printf("a majority of users are on compliant ISPs by round %d\n", tip)
	}
	last := traj[len(traj)-1]
	fmt.Printf("after 30 rounds: %d/20 ISPs compliant, %.0f%% of users protected\n",
		last.CompliantISPs, 100*last.CompliantUserFrac)
	fmt.Println(`the paper: "the good experience of the users of compliant ISPs will`)
	fmt.Println(` attract more people to switch ... and more ISPs will become compliant."`)
	// Output:
	// == adoption from a 2-ISP bootstrap (20 ISPs, 20k users) ==
	// round   compliant ISPs   compliant user share spam/user (compliant)  spam/user (other)
	// 0       2                10.0%                10.0                   100.0              ####
	// 2       2                17.6%                9.1                    91.2               #######
	// 4       5                36.8%                8.6                    85.8               ##############
	// 6       8                53.2%                7.7                    77.3               #####################
	// 8       12               70.9%                6.8                    68.2               ############################
	// 10      17               89.7%                5.9                    58.6               ###################################
	// 12      18               93.5%                5.3                    53.3               #####################################
	// 14      19               96.9%                5.3                    53.1               ######################################
	// 16      20               100.0%               5.0                    50.0               ########################################
	// 18      20               100.0%               5.0                    50.0               ########################################
	// 20      20               100.0%               5.0                    50.0               ########################################
	// 22      20               100.0%               5.0                    50.0               ########################################
	// 24      20               100.0%               5.0                    50.0               ########################################
	// 26      20               100.0%               5.0                    50.0               ########################################
	// 28      20               100.0%               5.0                    50.0               ########################################
	// 30      20               100.0%               5.0                    50.0               ########################################
	//
	// a majority of users are on compliant ISPs by round 6
	// after 30 rounds: 20/20 ISPs compliant, 100% of users protected
	// the paper: "the good experience of the users of compliant ISPs will
	//  attract more people to switch ... and more ISPs will become compliant."
}

// Example_audit is the §4.4 misbehavior-detection machinery, live.
//
// It builds a four-ISP federation with real-money settlement enabled,
// makes one ISP cheat (it charges its users but under-reports what it
// owes the federation), runs two billing periods, and shows the bank
// catching exactly the cheater while settling the honest pairs in real
// money.
func Example_audit() {
	const n = 4
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        n,
		UsersPerISP:    4,
		InitialBalance: 200,
		Settle:         true,
		BankFunds:      50_000,
		Seed:           2,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== period 1: everyone honest ==")
	traffic := func(msgs int) {
		rng := w.Rand()
		for k := 0; k < msgs; k++ {
			from := w.UserAddr(rng.Intn(n), rng.Intn(4))
			to := w.UserAddr(rng.Intn(n), rng.Intn(4))
			_, _ = w.Send(from, to, "mail", "body")
		}
		w.Run()
	}
	traffic(600)
	if err := w.SnapshotRound(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit round 1: %d violations; %d settlement transfers moved real money along net flows\n",
		len(w.Bank.Violations()), len(w.Bank.LastTransfers()))
	for _, tr := range w.Bank.LastTransfers() {
		fmt.Printf("  isp[%d] paid isp[%d] %v\n", tr.From, tr.To, tr.Amount)
	}

	fmt.Println("\n== period 2: isp[2] starts cheating ==")
	fmt.Println("(it keeps charging its users one e-penny per message but")
	fmt.Println(" silently stops recording what it owes its peers)")
	w.Engine(2).SetCheat(true)
	traffic(600)
	if err := w.SnapshotRound(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nbank verification (credit_i[j] + credit_j[i] must be 0):")
	newFlags := w.Bank.Violations()
	for _, v := range newFlags {
		fmt.Printf("  FLAGGED %v\n", v)
	}
	honestFlagged := 0
	for _, v := range newFlags {
		if v.I != 2 && v.J != 2 {
			honestFlagged++
		}
	}
	fmt.Printf("\n%d pairs flagged — all involve isp[2]; honest pairs flagged: %d\n",
		len(newFlags), honestFlagged)
	fmt.Printf("flagged pairs were NOT settled (paying on a cheater's numbers would reward it);\n")
	fmt.Printf("period-2 settlement netted only the verified pairs, in %d transfer(s)\n", len(w.Bank.LastTransfers()))

	st := w.Bank.Stats()
	fmt.Printf("\nbank totals: %d audit rounds, %v settled overall, accounts still sum to %v\n",
		st.Rounds, zmail.Penny(st.SettledPennies), w.Bank.TotalAccounts())
	fmt.Println("\nthe paper (§4.4): \"based on which the bank may make further investigation\"")
	fmt.Println("— in a deployment, isp[2] now loses its compliant status.")
	// Output:
	// == period 1: everyone honest ==
	// audit round 1: 0 violations; 3 settlement transfers moved real money along net flows
	//   isp[1] paid isp[0] $0.09
	//   isp[1] paid isp[3] $0.03
	//   isp[2] paid isp[3] $0.07
	//
	// == period 2: isp[2] starts cheating ==
	// (it keeps charging its users one e-penny per message but
	//  silently stops recording what it owes its peers)
	//
	// bank verification (credit_i[j] + credit_j[i] must be 0):
	//   FLAGGED isp[0]/isp[2]: -6 + -31 != 0
	//   FLAGGED isp[1]/isp[2]: 2 + -35 != 0
	//   FLAGGED isp[2]/isp[3]: -43 + 13 != 0
	//
	// 3 pairs flagged — all involve isp[2]; honest pairs flagged: 0
	// flagged pairs were NOT settled (paying on a cheater's numbers would reward it);
	// period-2 settlement netted only the verified pairs, in 2 transfer(s)
	//
	// bank totals: 2 audit rounds, $0.37 settled overall, accounts still sum to $2000.00
	//
	// the paper (§4.4): "based on which the bank may make further investigation"
	// — in a deployment, isp[2] now loses its compliant status.
}
