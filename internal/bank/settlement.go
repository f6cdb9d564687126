package bank

import (
	"zmail/internal/money"
)

// Settlement is the real-money counterpart of the credit audit. The
// paper defines Zmail as "an accounting relationship among compliant
// ISPs, which reconcile payments to and from their users" (§1.3): when
// a user of isp[i] pays an e-penny to a user of isp[j], isp[i]'s till
// keeps the sender's money while isp[j] now owes its own user a
// redeemable e-penny. Over a billing period those obligations
// accumulate in the credit arrays, and at audit time the bank moves
// real pennies between the ISPs' accounts to back them:
//
//	credit_i[j] = +k  ⇒  isp[i] sent k more paid messages to isp[j]
//	                     than it received  ⇒  isp[i] pays k pennies
//	                     (at the e-penny rate) to isp[j].
//
// Settlement only runs for pairs whose reports verified (a flagged
// pair is frozen for investigation instead — paying out on a cheater's
// numbers would let understatement steal money, not just e-pennies).
//
// Enable it with Config.SettleOnVerify.

// Transfer records one inter-ISP settlement payment.
type Transfer struct {
	From, To int
	Amount   money.Penny
}

// settleNetLocked moves real money for the verified pairs by
// multilateral netting, using the verify matrix as it stood at
// verification; call with b.mu held, after verifyLocked has recorded
// violations but before the matrix is cleared.
//
// Each ISP's pairwise nets (the net for pair (i, j) is taken from
// isp[i]'s own report, verify[j][i] = credit_i[j]) collapse into a
// single signed position, and debtors pay creditors in one
// deterministic sweep — both sides walked in ascending index order, so
// the transfer list is a pure function of the verify matrix. Flagged
// and non-compliant pairs are excluded from the netting. Because a
// pair contributes +net to one side and -net to the other, positions
// sum to zero and account conservation is structural. Absent a
// shortfall, the final accounts are those one transfer per pair would
// leave, reached in at most n-1 transfers.
func (b *Bank) settleNetLocked(flagged map[[2]int]bool) {
	n := b.cfg.NumISPs
	owes := make([]money.Penny, n) // >0: pays; <0: is owed
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !b.compliant[i] || !b.compliant[j] || flagged[[2]int{i, j}] {
				continue
			}
			net := b.verify[j][i] // credit_i[j] as reported by isp[i]
			if net == 0 {
				continue
			}
			p := money.EPenny(net).ToPennies(money.DefaultRate)
			owes[i] += p
			owes[j] -= p
		}
	}
	// A debtor in arrears pays what its account holds: clamp its
	// position up front (one shortfall event per broke debtor) so the
	// sweep below never writes an account negative. The dropped excess
	// simply leaves the matching creditors under-paid.
	for i := 0; i < n; i++ {
		if owes[i] > b.account[i] {
			owes[i] = b.account[i]
			b.stats.SettlementShortfalls++
		}
	}
	var transfers []Transfer
	payer, payee := 0, 0
	for {
		for payer < n && owes[payer] <= 0 {
			payer++
		}
		for payee < n && owes[payee] >= 0 {
			payee++
		}
		if payer >= n || payee >= n {
			break
		}
		amount := owes[payer]
		if due := -owes[payee]; due < amount {
			amount = due
		}
		owes[payer] -= amount
		owes[payee] += amount
		b.account[payer] -= amount
		b.account[payee] += amount
		b.stats.SettledPennies += int64(amount)
		b.stats.SettlementTransfers++
		transfers = append(transfers, Transfer{From: payer, To: payee, Amount: amount})
	}
	b.lastTransfers = transfers
	b.walSettle(transfers)
}

// LastTransfers returns the settlement payments of the most recent
// verified round (empty when settlement is disabled or nothing
// netted).
func (b *Bank) LastTransfers() []Transfer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Transfer(nil), b.lastTransfers...)
}

// TotalAccounts sums all ISP accounts; settlement must conserve it.
func (b *Bank) TotalAccounts() money.Penny {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total money.Penny
	for _, a := range b.account {
		total += a
	}
	return total
}
