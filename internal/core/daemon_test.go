package core

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"zmail/internal/bank"
	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// buyEnv is a buy-only pool order from ISP 0.
func buyEnv(nonce uint64, value int64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindBatchOrder, From: 0,
		Payload: (&wire.BatchOrder{Buy: value, Nonce: nonce}).MarshalBinary()}
}

// TestBankDaemonWALOrderAfterReplay restarts a bank from a WAL of 10⁵
// orders on a fixed port while an ISP dials from before boot begins and
// sends an order the moment it connects. The daemon listens only once the ISP
// is enrolled and the log replayed, so the order is applied to the
// recovered account and its nonce joins the recovered nonce set; the
// replay overwrites neither, and a second reboot still holds both.
func TestBankDaemonWALOrderAfterReplay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().String()
	ln.Close()
	cfg := BankDaemonConfig{
		Bank: bank.Config{
			NumISPs:        2,
			InitialAccount: 1000,
			OwnSealer:      crypto.Null{},
		},
		ListenAddr: port,
		WALDir:     filepath.Join(t.TempDir(), "wal"),
		Enroll:     map[int]crypto.Sealer{0: crypto.Null{}, 1: crypto.Null{}},
		Logf:       quietLog,
	}
	d, err := StartBankDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Empty orders are refused but their nonces are logged, which
	// makes the replay long.
	const orders = 100_000
	for nonce := uint64(3); nonce < orders; nonce++ {
		if err := d.Bank().Handle(buyEnv(nonce, 0)); err == nil {
			t.Fatal("empty order accepted")
		}
	}
	if err := d.Bank().Handle(buyEnv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	replies := make(chan *wire.Envelope, 1)
	stop := make(chan struct{})
	go func() {
		defer close(replies)
		for {
			conn, err := net.Dial("tcp", port)
			if err != nil {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
					continue
				}
			}
			defer conn.Close()
			if wire.WriteEnvelope(conn, &wire.Envelope{Kind: wire.KindHello, From: 0}) != nil ||
				wire.WriteEnvelope(conn, buyEnv(2, 50)) != nil {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if env, err := wire.ReadEnvelope(conn); err == nil {
				replies <- env
			}
			return
		}
	}()

	d, err = StartBankDaemon(cfg)
	if err != nil {
		close(stop)
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	env := <-replies
	if env == nil {
		t.Fatal("no reply to the order")
	}
	var reply wire.BatchReply
	if err := reply.UnmarshalBinary(env.Payload); err != nil {
		t.Fatal(err)
	}
	if env.Kind != wire.KindBatchReply || reply.Nonce != 2 || reply.BuyFilled != 50 {
		t.Fatalf("reply %v %+v, want nonce 2 filled with 50", env.Kind, reply)
	}
	check := func(b *bank.Bank) {
		t.Helper()
		if acct, _ := b.Account(0); acct != 850 {
			t.Fatalf("isp[0] account %v, want %v: the order must apply to the replayed %v",
				acct, money.Penny(850), money.Penny(900))
		}
		for _, nonce := range []uint64{1, 2} {
			if err := b.Handle(buyEnv(nonce, 1)); !errors.Is(err, bank.ErrReplay) {
				t.Fatalf("nonce %d replayed: err %v, want ErrReplay", nonce, err)
			}
		}
	}
	check(d.Bank())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = StartBankDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(d.Bank())
}
