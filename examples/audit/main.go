// Audit: the §4.4 misbehavior-detection machinery, live.
//
// Builds a four-ISP federation with real-money settlement enabled,
// makes one ISP cheat (it charges its users but under-reports what it
// owes the federation), runs two billing periods, and shows the bank
// catching exactly the cheater while settling the honest pairs in real
// money.
//
// Run with: go run ./examples/audit
package main

import (
	"fmt"
	"log"

	"zmail"
)

func main() {
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
}
