package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"zmail/internal/persist"
)

// The federation's own logs grow with however much mail a run got
// through, so their recovery time would rise whenever throughput does.
// recover_s is therefore measured on a log of fixed shape: every user
// of ISP 0 registered, then ISP 0's half of the first recoveryMsgs
// recipients of the workload's stream committed through a stand-alone
// engine (the sender's charge when the sender is local, the receive
// when only the recipient is). The gate still closes and recovers the
// live ISP 0 once per run and prints that time, ungated.
const (
	recoveryMsgs = 100_000
	recoveries   = 7
)

// recoveryLog is what buildRecoveryLog left on disk.
type recoveryLog struct {
	dir     string
	records int // WAL records past the snapshot, counted by the persist layer
}

// buildRecoveryLog writes the fixed log under dir.
func buildRecoveryLog(cfg fedConfig, b *builder, ch *choices, msgs int, dir string) (*recoveryLog, error) {
	eng, err := standaloneEngine(cfg, 0)
	if err != nil {
		return nil, err
	}
	if err := eng.AttachWAL(dir); err != nil {
		return nil, err
	}
	if err := registerUsers(eng, cfg); err != nil {
		return nil, err
	}
	var t txn
	for i, done := 0, 0; done < msgs; i++ {
		b.build(&t, ch, i, "r"+fmt.Sprint(i))
		for _, to := range t.rcpts {
			m := t.msg.Clone()
			m.To = to
			switch {
			case t.isp == 0:
				_, err = eng.SubmitSync(m)
			case to.Domain == domainOf(0):
				err = eng.ReceiveRemote(t.from.Domain, m)
			}
			if err != nil {
				return nil, fmt.Errorf("recovery log: %w", err)
			}
			done++
		}
	}
	if n := eng.WALErrors(); n != 0 {
		return nil, fmt.Errorf("recovery log: %d WAL errors", n)
	}
	if err := eng.CloseWAL(); err != nil {
		return nil, err
	}
	return &recoveryLog{dir: dir}, nil
}

// replayRaw runs the persist layer's replay alone — read, checksum,
// hand over — and counts the records, so the engine's recovery time can
// be stated per record.
func (l *recoveryLog) replayRaw(cfg fedConfig) (time.Duration, error) {
	eng, err := standaloneEngine(cfg, 0)
	if err != nil {
		return 0, err
	}
	var state json.RawMessage
	l.records = 0
	start := time.Now()
	w, err := persist.RecoverWAL(l.dir, eng.Stripes()+1, &state, func(int, []byte) error {
		l.records++
		return nil
	})
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	return took, w.Close()
}

// recover boots a fresh engine from the log and returns how long
// Engine.RecoverWAL took.
func (l *recoveryLog) recover(cfg fedConfig) (time.Duration, error) {
	eng, err := standaloneEngine(cfg, 0)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := eng.RecoverWAL(l.dir); err != nil {
		return 0, err
	}
	took := time.Since(start)
	return took, eng.CloseWAL()
}

func (l *recoveryLog) remove() { _ = os.RemoveAll(l.dir) }
