package bank

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// bankLedger is everything a refusal must leave alone: every account,
// the e-pennies minted and burned, the violations and the last
// settlement.
type bankLedger struct {
	accounts       []int64
	minted, burned int64
	violations     []Violation
	transfers      []Transfer
}

func bankLedgerOf(b *Bank) bankLedger {
	st := b.ExportState()
	return bankLedger{st.Accounts, st.Minted, st.Burned, st.Violations, b.LastTransfers()}
}

// TestRefusalsAreMoneyNeutral drives a settling bank with random scripts
// that mix every refusal it makes — replayed and degenerate orders,
// orders, deposits, reports and enrolments from an unknown or
// non-compliant ISP, bad deposits, stale, duplicate and unsolicited
// reports, a second round while one gathers, an abort with none,
// truncated orders and reports, an order sealed to another key and a
// wrong kind — with the accepted operations they shadow, including
// audit rounds that settle and flag a cheater. A message that fails to
// open or decode must be refused with the sealer's or the decoder's own
// error.
// After every operation the real pennies in accounts plus the
// e-pennies outstanding are what was deposited, the outstanding
// e-pennies are what the replies filled less what they burned, and
// after every operation that returns an error the ledger is as it was.
func TestRefusalsAreMoneyNeutral(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		bankRefusalScript(t, rand.New(rand.NewSource(seed)), 150)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

func bankRefusalScript(t *testing.T, rng *rand.Rand, steps int) {
	const n = 4 // isp3 is non-compliant; index 4 and -1 are unknown
	ft := newFake()
	bankKey := keySealer(1)
	b, err := New(Config{NumISPs: n, Compliant: []bool{true, true, true, false}, InitialAccount: 500,
		Transport: ft, OwnSealer: bankKey, SettleOnVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := range 3 {
		if err := b.Enroll(g, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
	}
	paidIn := int64(b.TotalAccounts())
	var outstanding int64
	var nonce, seq uint64
	var used []uint64
	var reports [][]int64 // this round's, once started
	var due []int32       // compliant ISPs yet to report this round
	isp := func() int32 { return int32(rng.Intn(n+2)) - 1 }
	for step := range steps {
		before := bankLedgerOf(b)
		var what string
		var err error
		switch rng.Intn(10) {
		case 0, 1, 2:
			g := isp()
			buy, sell := int64(rng.Intn(300)-20), int64(rng.Intn(60)-10)
			if rng.Intn(4) == 0 {
				buy, sell = 0, 0
			}
			non := nonce + 1
			if len(used) > 0 && rng.Intn(4) == 0 {
				non = used[rng.Intn(len(used))]
			} else {
				nonce++
			}
			what = fmt.Sprintf("order from isp%d buy %d sell %d nonce %d", g, buy, sell, non)
			if err = b.Handle(bankKey.sealed(batchEnv(g, buy, sell, non))); err == nil {
				replies := ft.out[int(g)]
				var br wire.BatchReply
				if err := br.UnmarshalBinary(replies[len(replies)-1].Payload); err != nil {
					t.Fatal(err)
				}
				outstanding += br.BuyFilled - br.SellBurned
			}
			used = append(used, non)
		case 3:
			g, amt := int(isp()), money.Penny(rng.Intn(100)-10)
			what = fmt.Sprintf("deposit %d at isp%d", amt, g)
			if err = b.Deposit(g, amt); err == nil {
				paidIn += int64(amt)
			}
		case 4:
			what = "start a round"
			if err = b.StartSnapshot(); err == nil {
				// Pairs (0,1) and (1,2) owe each other; isp0 may cheat.
				x, y := int64(rng.Intn(20)), int64(rng.Intn(20))
				cheat := int64(rng.Intn(2))
				reports = [][]int64{{0, x - cheat, 0, 0}, {-x, 0, y, 0}, {0, -y, 0, 0}}
				due = []int32{0, 1, 2}
			}
		case 5, 6, 7:
			g := isp()
			if len(due) > 0 && rng.Intn(3) > 0 {
				g, due = due[0], due[1:]
			}
			s := seq
			if rng.Intn(4) == 0 {
				s = seq + uint64(rng.Intn(3)) - 1
			}
			credits := make([]int64, n)
			if g >= 0 && int(g) < len(reports) {
				credits = reports[g]
			}
			what = fmt.Sprintf("report from isp%d for seq %d", g, s)
			if err = b.Handle(bankKey.sealed(reportEnv(g, s, credits))); err == nil && b.RoundComplete() {
				seq++
				reports = nil
			}
		case 8:
			if rng.Intn(3) == 0 {
				what = "abort"
				if err = b.AbortRound(); err == nil {
					seq++
					reports = nil
				}
				break
			}
			g := int(isp())
			what = fmt.Sprintf("enroll isp%d", g)
			err = b.Enroll(g, crypto.Null{})
		case 9:
			// A fresh order, or the report due next: accepted whole, so only
			// the open or the decode refuses.
			env := batchEnv(int32(rng.Intn(3)), 5, 0, nonce+1)
			what = "order"
			if len(due) > 0 && int(due[0]) < len(reports) && rng.Intn(2) == 0 {
				env, what = reportEnv(due[0], seq, reports[due[0]]), "report"
			}
			var want error
			switch rng.Intn(3) {
			case 0:
				env.Payload = env.Payload[:len(env.Payload)-1]
				env, what, want = bankKey.sealed(env), "undecodable "+what, wire.ErrShortMessage
			case 1:
				env, what, want = keySealer(2).sealed(env), what+" sealed to another key", crypto.ErrBadSeal
			default:
				env.Kind = wire.KindBatchReply
				env, what = bankKey.sealed(env), what+" of the wrong kind"
			}
			if err = b.Handle(env); want != nil && !errors.Is(err, want) {
				t.Fatalf("step %d, %s: %v, want %v", step, what, err, want)
			}
		}
		after := bankLedgerOf(b)
		if err != nil && !reflect.DeepEqual(after, before) {
			t.Fatalf("step %d, %s: refused (%v) but the ledger moved:\n before %+v\n after  %+v", step, what, err, before, after)
		}
		if got := int64(b.TotalAccounts()) + b.Outstanding(); got != paidIn {
			t.Fatalf("step %d, %s: real pennies not conserved: accounts + outstanding = %d, want %d", step, what, got, paidIn)
		}
		if got := b.Outstanding(); got != outstanding {
			t.Fatalf("step %d, %s: %d e-pennies outstanding, the replies account for %d", step, what, got, outstanding)
		}
		if slices.ContainsFunc(after.accounts, func(a int64) bool { return a < 0 }) {
			t.Fatalf("step %d, %s: negative account %v", step, what, after.accounts)
		}
	}
}
