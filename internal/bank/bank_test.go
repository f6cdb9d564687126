package bank

import (
	"errors"
	"slices"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// fakeTransport records envelopes per destination ISP.
type fakeTransport struct {
	out map[int][]*wire.Envelope
}

func newFake() *fakeTransport { return &fakeTransport{out: make(map[int][]*wire.Envelope)} }

func (f *fakeTransport) SendISP(index int, env *wire.Envelope) {
	f.out[index] = append(f.out[index], env)
}

func newBank(t *testing.T, n int, compliant []bool) (*Bank, *fakeTransport) {
	t.Helper()
	ft := newFake()
	b, err := New(Config{
		NumISPs:        n,
		Compliant:      compliant,
		InitialAccount: 1000,
		Transport:      ft,
		OwnSealer:      crypto.Null{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if compliant == nil || compliant[i] {
			if err := b.Enroll(i, crypto.Null{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b, ft
}

func batchEnv(from int32, buy, sell int64, nonce uint64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindBatchOrder, From: from,
		Payload: (&wire.BatchOrder{Buy: buy, Sell: sell, Nonce: nonce}).MarshalBinary()}
}

// buyEnv and sellEnv are one-sided orders.
func buyEnv(from int32, value int64, nonce uint64) *wire.Envelope {
	return batchEnv(from, value, 0, nonce)
}

func sellEnv(from int32, value int64, nonce uint64) *wire.Envelope {
	return batchEnv(from, 0, value, nonce)
}

// batchReplyOf decodes the bank's one reply to ISP index i.
func batchReplyOf(t *testing.T, ft *fakeTransport, i int) wire.BatchReply {
	t.Helper()
	replies := ft.out[i]
	if len(replies) != 1 || replies[0].Kind != wire.KindBatchReply {
		t.Fatalf("replies = %+v", replies)
	}
	var br wire.BatchReply
	if err := br.UnmarshalBinary(replies[0].Payload); err != nil {
		t.Fatal(err)
	}
	return br
}

func reportEnv(from int32, seq uint64, credits []int64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindReply, From: from,
		Payload: (&wire.CreditReport{Seq: seq, Credits: credits}).MarshalBinary()}
}

// keySealer stands in for a keypair: Seal tags a payload with the key,
// and Open refuses a payload tagged with another key with
// crypto.ErrBadSeal, as a crypto.Box refuses one sealed to another key.
type keySealer byte

func (k keySealer) Seal(plain []byte) ([]byte, error) { return append([]byte{byte(k)}, plain...), nil }

func (k keySealer) Open(sealed []byte) ([]byte, error) {
	if len(sealed) == 0 || sealed[0] != byte(k) {
		return nil, crypto.ErrBadSeal
	}
	return slices.Clone(sealed[1:]), nil
}

func (k keySealer) PublicOnly() crypto.Sealer { return k }

// sealed returns env with its payload sealed to k.
func (k keySealer) sealed(env *wire.Envelope) *wire.Envelope {
	env.Payload, _ = k.Seal(env.Payload)
	return env
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{NumISPs: 2, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(Config{NumISPs: 2, Transport: newFake()}); err == nil {
		t.Error("nil sealer accepted")
	}
	if _, err := New(Config{NumISPs: 2, Transport: newFake(), OwnSealer: crypto.Null{}, Compliant: []bool{true}}); err == nil {
		t.Error("mismatched compliant length accepted")
	}
}

func TestBuyAcceptedAndDebited(t *testing.T) {
	b, ft := newBank(t, 2, nil)
	if err := b.Handle(buyEnv(0, 300, 1)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 700 {
		t.Fatalf("account = %v, want 700", acct)
	}
	if b.Outstanding() != 300 {
		t.Fatalf("outstanding = %d", b.Outstanding())
	}
	if br := batchReplyOf(t, ft, 0); br.BuyFilled != 300 || br.Nonce != 1 {
		t.Fatalf("reply = %+v", br)
	}
}

// TestBuyDeniedWhenBroke: an empty account fills nothing; the order
// is answered with BuyFilled 0 and counted as denied.
func TestBuyDeniedWhenBroke(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(buyEnv(0, 1000, 1)); err != nil { // empties the account
		t.Fatal(err)
	}
	ft.out[0] = nil
	if err := b.Handle(buyEnv(0, 5000, 2)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 0 {
		t.Fatal("denied buy changed the account")
	}
	if br := batchReplyOf(t, ft, 0); br.BuyFilled != 0 || br.Nonce != 2 {
		t.Fatalf("overdraw filled: %+v", br)
	}
	st := b.Stats()
	if st.BuysDenied != 1 || st.Minted != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBuyZeroOrNegativeDenied(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(buyEnv(0, 0, 1)); err == nil {
		t.Fatal("zero buy accepted")
	}
	if err := b.Handle(buyEnv(0, -50, 2)); err == nil {
		t.Fatal("negative buy accepted")
	}
	if b.Stats().BuysAccepted != 0 || len(ft.out[0]) != 0 {
		t.Fatal("non-positive buy accepted")
	}
	acct, _ := b.Account(0)
	if acct != 1000 {
		t.Fatal("account changed")
	}
	// Both nonces are retired although the orders were refused.
	if err := b.Handle(buyEnv(0, 10, 2)); !errors.Is(err, ErrReplay) {
		t.Fatalf("refused order's nonce reusable: %v", err)
	}
}

func TestSellCredited(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(sellEnv(0, 200, 7)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1200 {
		t.Fatalf("account = %v", acct)
	}
	if b.Outstanding() != -200 {
		t.Fatalf("outstanding = %d", b.Outstanding())
	}
	if br := batchReplyOf(t, ft, 0); br.Nonce != 7 || br.SellBurned != 200 || br.BuyFilled != 0 {
		t.Fatalf("reply = %+v", br)
	}
}

func TestBatchOrderMintAndBurn(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(batchEnv(0, 300, 100, 5)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1000-300+100 {
		t.Fatalf("account = %v, want 800", acct)
	}
	st := b.Stats()
	if st.Minted != 300 || st.Burned != 100 || st.BatchOrders != 1 ||
		st.BuysAccepted != 1 || st.Sells != 1 || st.BatchPartialFills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if br := batchReplyOf(t, ft, 0); br.Nonce != 5 || br.BuyFilled != 300 || br.SellBurned != 100 {
		t.Fatalf("reply = %+v", br)
	}
}

func TestBatchOrderPartialFill(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	// The buy side exceeds the account: the order fills what the
	// account covers.
	if err := b.Handle(batchEnv(0, 5000, 0, 1)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 0 {
		t.Fatalf("account = %v, want 0", acct)
	}
	st := b.Stats()
	if st.Minted != 1000 || st.BatchPartialFills != 1 || st.BuysAccepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	var br wire.BatchReply
	_ = br.UnmarshalBinary(ft.out[0][0].Payload)
	if br.BuyFilled != 1000 || br.SellBurned != 0 {
		t.Fatalf("reply = %+v", br)
	}
	// Account now empty: a further buy-only order fills zero (denied),
	// but a sell side still burns.
	if err := b.Handle(batchEnv(0, 10, 25, 2)); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.BuysDenied != 1 || st.Burned != 25 {
		t.Fatalf("after empty-account order: %+v", st)
	}
}

func TestBatchOrderReplay(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	env := batchEnv(0, 100, 50, 9)
	if err := b.Handle(env); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(batchEnv(0, 100, 50, 9)); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed batch: %v", err)
	}
	acct, _ := b.Account(0)
	if acct != 1000-100+50 {
		t.Fatal("replay applied twice")
	}
	if len(ft.out[0]) != 1 {
		t.Fatal("replay generated a reply")
	}
}

func TestBatchOrderRejectsDegenerate(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(batchEnv(0, 0, 0, 1)); err == nil {
		t.Fatal("empty order accepted")
	}
	if err := b.Handle(batchEnv(0, -5, 10, 2)); err == nil {
		t.Fatal("negative buy accepted")
	}
	if err := b.Handle(batchEnv(0, 10, -5, 3)); err == nil {
		t.Fatal("negative sell accepted")
	}
	acct, _ := b.Account(0)
	if acct != 1000 || b.Stats().BatchOrders != 0 {
		t.Fatal("degenerate order changed state")
	}
	if len(ft.out[0]) != 0 {
		t.Fatal("degenerate order got a reply")
	}
	// The rejection still retired the nonce.
	if err := b.Handle(batchEnv(0, 10, 10, 1)); !errors.Is(err, ErrReplay) {
		t.Fatalf("nonce of rejected order reusable: %v", err)
	}
}

func TestBatchOrderConservation(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	initial := money.Penny(2 * 1000)
	nonce := uint64(0)
	next := func() uint64 { nonce++; return nonce }
	for i := 0; i < 50; i++ {
		_ = b.Handle(batchEnv(int32(i%2), int64(10+i), int64(5+i), next()))
	}
	var accounts money.Penny
	for i := 0; i < 2; i++ {
		a, _ := b.Account(i)
		accounts += a
	}
	if accounts+money.Penny(b.Outstanding()) != initial {
		t.Fatalf("conservation: accounts %v + outstanding %d != %v",
			accounts, b.Outstanding(), initial)
	}
}

func TestReplayRejected(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	env := buyEnv(0, 100, 42)
	if err := b.Handle(env); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(env); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed buy: %v", err)
	}
	acct, _ := b.Account(0)
	if acct != 900 {
		t.Fatal("replay debited twice")
	}
	if len(ft.out[0]) != 1 {
		t.Fatal("replay generated a reply")
	}
	// The nonce, not the body, is what is remembered: a sell reusing
	// a buy's nonce is also a replay.
	if err := b.Handle(sellEnv(0, 10, 42)); !errors.Is(err, ErrReplay) {
		t.Fatalf("nonce reuse with another body: %v", err)
	}
}

func TestUnknownOrNonCompliantISP(t *testing.T) {
	b, _ := newBank(t, 3, []bool{true, false, true})
	if err := b.Handle(buyEnv(1, 10, 1)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("non-compliant: %v", err)
	}
	if err := b.Handle(buyEnv(9, 10, 2)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("out of range: %v", err)
	}
	if err := b.Handle(buyEnv(-1, 10, 3)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("negative: %v", err)
	}
}

func TestEnrollRequired(t *testing.T) {
	ft := newFake()
	b, err := New(Config{NumISPs: 1, InitialAccount: 100, Transport: ft, OwnSealer: crypto.Null{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(buyEnv(0, 10, 1)); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("unenrolled reply: %v", err)
	}
	if err := b.StartSnapshot(); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("unenrolled snapshot: %v", err)
	}
}

func TestDeposit(t *testing.T) {
	b, _ := newBank(t, 2, []bool{true, false})
	if err := b.Deposit(0, 500); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1500 {
		t.Fatalf("account = %v", acct)
	}
	if err := b.Deposit(0, 0); err == nil {
		t.Error("zero deposit accepted")
	}
	if err := b.Deposit(1, 10); !errors.Is(err, ErrUnknownISP) {
		t.Errorf("deposit to non-compliant: %v", err)
	}
}

func TestSnapshotRoundHonest(t *testing.T) {
	b, ft := newBank(t, 3, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if b.RoundComplete() {
		t.Fatal("round complete before replies")
	}
	if err := b.StartSnapshot(); !errors.Is(err, ErrRoundActive) {
		t.Fatalf("double start: %v", err)
	}
	for i := 0; i < 3; i++ {
		if len(ft.out[i]) != 1 || ft.out[i][0].Kind != wire.KindRequest {
			t.Fatalf("isp[%d] requests = %+v", i, ft.out[i])
		}
	}
	// Antisymmetric honest reports: credit[i][j] = -credit[j][i].
	_ = b.Handle(reportEnv(0, 0, []int64{0, 5, -2}))
	_ = b.Handle(reportEnv(1, 0, []int64{-5, 0, 7}))
	_ = b.Handle(reportEnv(2, 0, []int64{2, -7, 0}))
	if !b.RoundComplete() {
		t.Fatal("round not complete after all replies")
	}
	if got := b.Violations(); len(got) != 0 {
		t.Fatalf("honest round flagged %v", got)
	}
	if b.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d", b.Stats().Rounds)
	}
}

func TestSnapshotRoundFlagsCheater(t *testing.T) {
	b, _ := newBank(t, 3, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// isp1 misreports both of its rows: credit[0] should be -5 (isp0
	// claims +5 against it) and isp2's -4 contradicts isp1's +7.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 5, -2}))
	_ = b.Handle(reportEnv(1, 0, []int64{-3, 0, 7}))
	_ = b.Handle(reportEnv(2, 0, []int64{2, -4, 0}))
	got := b.Violations()
	want := map[[2]int]bool{{0, 1}: true, {1, 2}: true}
	if len(got) != 2 {
		t.Fatalf("violations = %v, want pairs (0,1) and (1,2)", got)
	}
	for _, v := range got {
		if !want[[2]int{v.I, v.J}] {
			t.Fatalf("unexpected pair flagged: %v", v)
		}
	}
}

func TestSnapshotReplyReplay(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(reportEnv(0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	// Duplicate reply from the same ISP.
	if err := b.Handle(reportEnv(0, 0, []int64{0, 99})); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate reply: %v", err)
	}
	// Wrong-seq reply.
	if err := b.Handle(reportEnv(1, 5, []int64{-1, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("wrong-seq reply: %v", err)
	}
	// Reply outside any round.
	if err := b.Handle(reportEnv(1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if !b.RoundComplete() {
		t.Fatal("round incomplete")
	}
	if err := b.Handle(reportEnv(1, 0, []int64{-1, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("reply outside round: %v", err)
	}
}

func TestSnapshotSkipsNonCompliant(t *testing.T) {
	b, ft := newBank(t, 3, []bool{true, false, true})
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if len(ft.out[1]) != 0 {
		t.Fatal("request sent to non-compliant ISP")
	}
	_ = b.Handle(reportEnv(0, 0, []int64{0, 0, 4}))
	_ = b.Handle(reportEnv(2, 0, []int64{-4, 0, 0}))
	if !b.RoundComplete() {
		t.Fatal("round should complete with only compliant replies")
	}
	if len(b.Violations()) != 0 {
		t.Fatalf("flagged %v", b.Violations())
	}
}

func TestSecondRoundSeqAdvances(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0}))
	_ = b.StartSnapshot()
	var rq wire.Request
	_ = rq.UnmarshalBinary(ft.out[0][1].Payload)
	if rq.Seq != 1 {
		t.Fatalf("second round seq = %d, want 1", rq.Seq)
	}
	// A stale round-0 report cannot satisfy round 1.
	if err := b.Handle(reportEnv(0, 0, []int64{0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale report: %v", err)
	}
}

func TestControlMsgCounting(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	_ = b.Handle(buyEnv(0, 10, 1))
	_ = b.Handle(sellEnv(1, 10, 2))
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 0}))
	_ = b.Handle(reportEnv(1, 0, []int64{0, 0}))
	if got := b.Stats().ControlMsgs; got != 4 {
		t.Fatalf("ControlMsgs = %d, want 4", got)
	}
}

func TestMoneyConservationAcrossTrades(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	initial := money.Penny(2 * 1000)
	nonce := uint64(0)
	next := func() uint64 { nonce++; return nonce }
	for i := 0; i < 50; i++ {
		_ = b.Handle(buyEnv(int32(i%2), int64(10+i), next()))
		_ = b.Handle(sellEnv(int32((i+1)%2), int64(5+i), next()))
	}
	var accounts money.Penny
	for i := 0; i < 2; i++ {
		a, _ := b.Account(i)
		accounts += a
	}
	// Real money + outstanding scrip value is constant.
	if accounts+money.Penny(b.Outstanding()) != initial {
		t.Fatalf("conservation: accounts %v + outstanding %d != %v",
			accounts, b.Outstanding(), initial)
	}
}
