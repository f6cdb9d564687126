package bank

import (
	"sync"
	"testing"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/wire"
)

// stallTransport blocks every send until release and closes sending on
// the first.
type stallTransport struct {
	once    sync.Once
	sending chan struct{}
	release chan struct{}
}

func (s *stallTransport) SendISP(int, *wire.Envelope) {
	s.once.Do(func() { close(s.sending) })
	<-s.release
}

// TestStalledSendDoesNotHoldBankLock: while an audit round's request is
// stuck in the transport, the bank still answers.
func TestStalledSendDoesNotHoldBankLock(t *testing.T) {
	st := &stallTransport{sending: make(chan struct{}), release: make(chan struct{})}
	b, err := New(Config{NumISPs: 1, InitialAccount: 1000, Transport: st, OwnSealer: crypto.Null{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Enroll(0, crypto.Null{}); err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() { started <- b.StartSnapshot() }()
	<-st.sending
	stats := make(chan Stats, 1)
	go func() { stats <- b.Stats() }()
	select {
	case <-stats:
	case <-time.After(time.Second):
		t.Fatal("Bank.Stats stalled behind a blocked transport send")
	}
	close(st.release)
	if err := <-started; err != nil {
		t.Fatal(err)
	}
}
