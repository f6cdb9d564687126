package isp

import (
	"testing"

	"zmail/internal/mail"
)

// TestGroupedMessageBufferedWhole: a message for a local user and two
// users of one peer, sent during a freeze, is buffered as one message
// and charges nobody; at thaw it commits whole — one transfer, one
// charge of two, one message to the peer carrying both recipients.
func TestGroupedMessageBufferedWhole(t *testing.T) {
	e, ft, clk := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 10)
	mustRegister(t, e, "bob", 0, 0)
	msg := mail.NewMessage(addr("alice@a.example"), addr("x@b.example"), "s", "b")
	msg.Rcpts = []mail.Address{addr("x@b.example"), addr("bob@a.example"), addr("y@b.example")}

	e.ForceSnapshot()
	if out, err := e.SubmitSync(msg); err != nil || out != SentBuffered {
		t.Fatalf("frozen submit = %v, %v; want buffered", out, err)
	}
	e.mu.Lock()
	buffered := len(e.outbox)
	e.mu.Unlock()
	if buffered != 1 || len(ft.mails) != 0 || len(ft.local) != 0 {
		t.Fatalf("outbox %d, sent %d, delivered %d; want the one message held", buffered, len(ft.mails), len(ft.local))
	}
	if u, _ := e.User("alice"); u.Balance != 10 || u.Sent != 0 {
		t.Fatalf("alice charged while frozen: %+v", u)
	}
	if got := e.Stats().Buffered; got != 3 {
		t.Fatalf("Stats().Buffered = %d, want one per recipient", got)
	}

	clk.Advance(thawAfter)
	if u, _ := e.User("alice"); u.Balance != 7 || u.Sent != 3 {
		t.Fatalf("alice after thaw = %+v, want balance 7, sent 3", u)
	}
	if u, _ := e.User("bob"); u.Balance != 1 || len(ft.local) != 1 || ft.local[0].msg.To.Local != "bob" {
		t.Fatalf("bob after thaw = %+v, deliveries %v", u, ft.local)
	}
	if len(ft.mails) != 1 {
		t.Fatalf("thaw sent %d messages to the peer, want 1", len(ft.mails))
	}
	got := ft.mails[0].msg.Recipients()
	if len(got) != 2 || got[0].Local != "x" || got[1].Local != "y" || ft.mails[0].msg.ID() != msg.ID() {
		t.Fatalf("peer message recipients %v, id %s; want [x y] under %s", got, ft.mails[0].msg.ID(), msg.ID())
	}
	if c := e.Credit()[1]; c != 2 {
		t.Fatalf("credit[b] = %d, want 2", c)
	}
	if st, _ := e.Statement("alice"); len(st) != 3 {
		t.Fatalf("alice's statement has %d lines, want one per recipient", len(st))
	}
}
