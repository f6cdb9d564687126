package experiments

import (
	"fmt"

	"zmail/internal/economy"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/maillist"
	"zmail/internal/metrics"
	"zmail/internal/sim"
)

// E6 — mailing lists (§5): acknowledgment refunds keep the
// distributor's net cost near zero, and unresponsive addresses are
// pruned automatically.
func E6(seed int64) (*Result, error) {
	const n = 3
	const subsPerISP = 5
	w, err := sim.NewWorld(sim.Config{
		NumISPs:        n,
		UsersPerISP:    subsPerISP + 1, // u0..u4 subscribers, u5 spare
		Seed:           seed,
		InitialBalance: 500,
		DefaultLimit:   10_000,
	})
	if err != nil {
		return nil, err
	}
	// The distributor is a dedicated mailbox on isp0.
	listAddr := mail.MustParseAddress("announce@" + w.Cfg.Domains[0])
	if err := w.Engine(0).RegisterUser("announce", 10_000, 1000, 100_000); err != nil {
		return nil, err
	}
	dist, err := maillist.New(maillist.Config{
		Address: listAddr,
		Submit: func(msg *mail.Message) error {
			_, err := w.Engine(0).SubmitSync(msg)
			return err
		},
		PruneAfter: 3,
	})
	if err != nil {
		return nil, err
	}
	w.SetAckSink(listAddr.String(), dist.HandleAck)

	// Live subscribers across all three ISPs...
	live := 0
	for i := 0; i < n; i++ {
		for u := 0; u < subsPerISP; u++ {
			if err := dist.Subscribe(mail.MustParseAddress(w.UserAddr(i, u))); err != nil {
				return nil, err
			}
			live++
		}
	}
	// ...plus dead foreign addresses that will never acknowledge.
	const dead = 4
	for d := 0; d < dead; d++ {
		if err := dist.Subscribe(mail.Address{Local: fmt.Sprintf("ghost%d", d), Domain: "defunct.example"}); err != nil {
			return nil, err
		}
	}
	// The poster is subscriber u0@isp0.
	poster := mail.MustParseAddress(w.UserAddr(0, 0))

	table := metrics.NewTable("E6: distributor economics over 6 postings (15 live + 4 dead subscribers)",
		"posting", "subscribers", "copies sent", "acks back", "net e-pennies", "pruned so far")
	const postings = 6
	for p := 1; p <= postings; p++ {
		post := mail.NewMessage(poster, listAddr, fmt.Sprintf("issue %d", p), "list body")
		if err := dist.Submit(post); err != nil {
			return nil, err
		}
		w.Run() // fan-out, deliveries, automatic acks, ack deliveries
		st := dist.Stats()
		table.AddRow(p, len(dist.Subscribers()), st.Distributed, st.AcksReceived, dist.NetEPennies(), st.Pruned)
	}

	st := dist.Stats()
	// Claim: every live copy is refunded (net cost = unacked copies to
	// dead addresses only, and those stop once pruned), and all dead
	// subscribers are pruned.
	deadRemaining := 0
	for _, a := range dist.Subscribers() {
		if a.Domain == "defunct.example" {
			deadRemaining++
		}
	}
	wasted := st.EPenniesSpent - st.EPenniesBack
	pass := deadRemaining == 0 && st.Pruned == dead &&
		len(dist.Subscribers()) == live &&
		wasted <= int64(dead*3) // at most PruneAfter copies per dead address
	notes := fmt.Sprintf("net cost %d e-pennies, bounded by dead×PruneAfter=%d; %d dead pruned; live base intact",
		wasted, dead*3, st.Pruned)
	return &Result{
		ID:    "E6",
		Title: "ack refunds make list distribution ~free and prune dead subscribers",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}

// E7 — zombies and viruses (§5): the per-user daily limit caps the
// damage a zombie can do and detects the infection; without Zmail the
// outbreak is unbounded and silent.
func E7(seed int64) (*Result, error) {
	table := metrics.NewTable("E7: 100-zombie outbreak, 500 msgs/hour each, one day",
		"daily limit", "attempted", "delivered", "blocked", "detected", "mean detect hour", "owner cost")
	limits := []int64{0, 100, 500, 1000, 5000}
	var unlimitedDelivered, cappedDelivered int64
	var detectedAtCap int
	for _, lim := range limits {
		z := economy.ZombieModel{Machines: 100, SendRatePerHour: 500, DailyLimit: lim, Seed: seed}
		out := z.RunDay()
		if lim == 0 {
			unlimitedDelivered = out.Delivered
		}
		if lim == 500 {
			cappedDelivered = out.Delivered
			detectedAtCap = out.DetectedMachines
		}
		limStr := "off (plain SMTP)"
		if lim > 0 {
			limStr = fmt.Sprint(lim)
		}
		table.AddRow(limStr, out.Attempted, out.Delivered, out.Blocked,
			out.DetectedMachines, fmt.Sprintf("%.2f", out.MeanDetectionHour),
			fmt.Sprintf("%d e¢", out.OwnerCostEPennies))
	}
	pass := unlimitedDelivered > 20*cappedDelivered && detectedAtCap == 100
	notes := fmt.Sprintf("limit=500 cuts delivered spam %.0fx and detects all 100 zombies within ~1 hour; plain SMTP delivers everything silently",
		float64(unlimitedDelivered)/float64(cappedDelivered))
	return &Result{
		ID:    "E7",
		Title: "daily limits bound zombie damage and detect infections",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}

// E8 — incremental deployment (§1.3, §5): starting from two compliant
// ISPs, user experience drives migration, ISPs follow their customers,
// and adoption exhibits positive feedback.
func E8(seed int64) (*Result, error) {
	m := economy.AdoptionModel{ISPs: 20, InitialCompliant: 2, Seed: seed}
	traj := m.Run(30)

	table := metrics.NewTable("E8: adoption trajectory from a 2-ISP bootstrap (20 ISPs)",
		"round", "compliant ISPs", "compliant user share", "spam/user (compliant)", "spam/user (other)")
	for _, p := range traj {
		if p.Round%3 != 0 && p.Round != 1 {
			continue
		}
		table.AddRow(p.Round, p.CompliantISPs,
			fmt.Sprintf("%.1f%%", 100*p.CompliantUserFrac),
			fmt.Sprintf("%.1f", p.MeanSpamCompliant),
			fmt.Sprintf("%.1f", p.MeanSpamOther))
	}
	last := traj[len(traj)-1]
	tip := economy.TippingRound(traj, 0.5)
	monotone := true
	for i := 1; i < len(traj); i++ {
		if traj[i].CompliantISPs < traj[i-1].CompliantISPs ||
			traj[i].CompliantUserFrac < traj[i-1].CompliantUserFrac-1e-9 {
			monotone = false
		}
	}
	pass := monotone && tip > 0 && last.CompliantISPs >= 18 && last.CompliantUserFrac > 0.9
	notes := fmt.Sprintf("majority of users on compliant ISPs by round %d; %d/20 ISPs compliant at round 30; growth monotone (positive feedback)",
		tip, last.CompliantISPs)
	return &Result{
		ID:    "E8",
		Title: "two compliant ISPs bootstrap federation-wide adoption",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}

// E9 — snapshot freeze semantics (§4.4): mail submitted during the
// 10-minute quiet period is buffered, never lost, and "only experienced
// by ISPs, not email users".
func E9(seed int64) (*Result, error) {
	const n = 3
	w, err := sim.NewWorld(sim.Config{NumISPs: n, UsersPerISP: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Begin a snapshot round but stop the clock mid-freeze.
	if err := w.Bank.StartSnapshot(); err != nil {
		return nil, err
	}
	w.RunFor(5 * sim.Latency) // requests delivered, engines frozen

	frozen := 0
	for i := 0; i < n; i++ {
		if w.Engine(i).Frozen() {
			frozen++
		}
	}

	// Users keep submitting while frozen.
	const during = 30
	buffered := 0
	for k := 0; k < during; k++ {
		out, err := w.Send(w.UserAddr(k%n, k%4), w.UserAddr((k+1)%n, (k+2)%4), "frozen-era", "b")
		if err != nil {
			return nil, err
		}
		if out == isp.SentBuffered {
			buffered++
		}
	}
	before := w.TotalInbox()

	// Let the freeze expire and everything drain.
	w.Run()
	if !w.Bank.RoundComplete() {
		return nil, fmt.Errorf("snapshot round did not complete")
	}
	after := w.TotalInbox()
	delivered := after - before

	table := metrics.NewTable("E9: mail submitted during the snapshot freeze",
		"metric", "value")
	table.AddRow("ISPs frozen at submit time", frozen)
	table.AddRow("messages submitted during freeze", during)
	table.AddRow("buffered (not rejected)", buffered)
	table.AddRow("delivered after thaw", delivered)
	table.AddRow("lost", during-delivered)
	table.AddRow("violations flagged", len(w.Bank.Violations()))

	pass := frozen == n && buffered == during && delivered == during &&
		len(w.Bank.Violations()) == 0 && w.ConservationHolds()
	notes := "freeze is invisible to users: every submission accepted, buffered, and delivered after thaw; audit stays clean"
	return &Result{
		ID:    "E9",
		Title: "snapshot freeze buffers user mail without loss",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}

// E10 — market control (§1.2): aggregate spam volume collapses as the
// e-penny price rises, while balanced normal users pay nothing net.
func E10(seed int64) (*Result, error) {
	m := economy.MarketModel{Seed: seed}
	prices := []float64{0, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.10}
	supply := m.Supply(prices)

	table := metrics.NewTable("E10: spam supply vs e-penny price (200 heterogeneous spammers)",
		"price $/msg", "total spam/day", "active spammers", "mean break-even rate")
	var volFree, volPenny int64
	for _, pt := range supply {
		if pt.PriceDollars == 0 {
			volFree = pt.TotalSpam
		}
		if pt.PriceDollars == 0.01 {
			volPenny = pt.TotalSpam
		}
		table.AddRow(fmt.Sprintf("%.4f", pt.PriceDollars), pt.TotalSpam,
			pt.ActiveSpammers, fmt.Sprintf("%.2e", pt.MeanBreakEvenRate))
	}
	monotone := true
	for i := 1; i < len(supply); i++ {
		if supply[i].TotalSpam > supply[i-1].TotalSpam {
			monotone = false
		}
	}
	reduction := float64(volFree) / float64(max64(volPenny, 1))
	pass := monotone && reduction > 100
	notes := fmt.Sprintf("spam volume falls %.0fx at the paper's $0.01 price; supply curve is monotone decreasing", reduction)
	return &Result{
		ID:    "E10",
		Title: "market forces: spam volume collapses as the e-penny price rises",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
