package isp

import (
	"errors"
	"testing"
	"time"

	"zmail/internal/mail"
)

// TestZombieWarningDeliveredOutsideStripe: the postmaster warning that a
// limit rejection sends is delivered after the sender's stripe is
// released, so a mailbox that blocks does not stall the sender's
// ledger row. Submit queues the warning at admission; SubmitSync
// queues it in charge.
func TestZombieWarningDeliveredOutsideStripe(t *testing.T) {
	for name, submit := range map[string]func(*Engine, *mail.Message) error{
		"Submit":     func(e *Engine, m *mail.Message) error { _, err := e.Submit(m); return err },
		"SubmitSync": func(e *Engine, m *mail.Message) error { _, err := e.SubmitSync(m); return err },
	} {
		t.Run(name, func(t *testing.T) {
			e, ft, _ := newEngine(t, 0, nil, nil)
			if err := e.RegisterUser("zed", 0, 5, 1); err != nil {
				t.Fatal(err)
			}
			mustRegister(t, e, "bob", 0, 0)
			msg := func() *mail.Message {
				return mail.NewMessage(addr("zed@a.example"), addr("bob@a.example"), "s", "b")
			}
			if err := submit(e, msg()); err != nil {
				t.Fatal(err)
			}
			warning, release := make(chan struct{}), make(chan struct{})
			ft.onLocal = func(d delivered) {
				if d.msg.From.Local == "postmaster" {
					close(warning)
					<-release
				}
			}
			rejected := make(chan error, 1)
			go func() { rejected <- submit(e, msg()) }()
			<-warning
			looked := make(chan struct{})
			go func() {
				defer close(looked)
				e.User("zed")
			}()
			select {
			case <-looked:
			case <-time.After(time.Second):
				t.Fatal("Engine.User stalled behind the zombie-warning delivery")
			}
			close(release)
			if err := <-rejected; !errors.Is(err, ErrLimitExceeded) {
				t.Fatalf("second send: %v, want ErrLimitExceeded", err)
			}
		})
	}
}
