package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"zmail/internal/bank"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/mempool"
	"zmail/internal/persist"
	"zmail/internal/smtp"
	"zmail/internal/wire"
)

// The layer ledger is measured from outside: each module's public
// functions are called on the messages the traced run sent one at a
// time, with nothing else running, and every call becomes a child span
// of that message. The parents say where on a message's way the call
// sits:
//
//	msg <- submit  <- smtp.txn <- mail.encode, mail.decode
//	               <- isp.admit
//	    <- deliver <- mempool.hop, isp.commit, persist.append
//	               <- core.relay, isp.receive   (cross-ISP mail)
//	    <- ack     <- core.relay, isp.receive   (list mail, the way back)
const (
	layerSMTP    = "smtp.txn"
	layerEncode  = "mail.encode"
	layerDecode  = "mail.decode"
	layerAdmit   = "isp.admit"
	layerHop     = "mempool.hop"
	layerCommit  = "isp.commit"
	layerAppend  = "persist.append"
	layerRelay   = "core.relay"
	layerReceive = "isp.receive"
)

// sampleMsg is one recipient's copy of a sampled transaction.
type sampleMsg struct {
	id       int64
	fromISP  int
	toISP    int
	from, to mail.Address
	msg      *mail.Message
}

type sampleTxn struct {
	txn
	id int64
}

// layerBench holds the sample and collects the spans and per-layer
// allocation counts.
type layerBench struct {
	rc     runConfig
	txns   []sampleTxn
	msgs   []sampleMsg
	spans  []span
	allocs map[string]float64 // per call, by layer
	extra  map[string]metric  // layer metrics that are not a span's median
}

// each times fn once per item and records one span per call, returning
// the spans it added. prep runs for every item before the clock and the
// allocation count start, so copies made there cost the layer nothing.
func (lb *layerBench) each(layer, parent string, n int, id func(int) int64, prep func(int), fn func(int) error) ([]span, error) {
	for i := 0; i < n; i++ {
		prep(i)
	}
	base := len(lb.spans)
	lb.spans = slices.Grow(lb.spans, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		start := sinceEpoch()
		err := fn(i)
		end := sinceEpoch()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", layer, err)
		}
		lb.spans = append(lb.spans, span{Name: layer, ID: id(i), Parent: parent, Start: int64(start), End: int64(end)})
	}
	runtime.ReadMemStats(&m1)
	if _, seen := lb.allocs[layer]; !seen && n > 0 {
		lb.allocs[layer] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	return lb.spans[base:], nil
}

// p50 is the median duration, in microseconds, of a layer's spans on a
// message's way out (the way back of a list acknowledgment is the same
// code on a smaller message and is left out).
func (lb *layerBench) p50(layer string) float64 {
	var d []float64
	for _, s := range lb.spans {
		if s.Name == layer && s.Parent != spanAck {
			d = append(d, us(s.dur()))
		}
	}
	return median(d)
}

// measureLayers runs every isolated layer measurement for the sample
// the traced run sent sequentially and fills res.Layers/LayerTable.
func measureLayers(rc runConfig, res *result, b *builder, ch *choices, tr *tracedRun, dir string) error {
	lb := &layerBench{rc: rc, allocs: map[string]float64{}, extra: map[string]metric{}}
	for i := 0; i < tr.txns; i++ {
		seq := tr.firstSeq + int64(i)
		st := sampleTxn{id: msgID(0, seq)}
		b.build(&st.txn, ch, int(seq), subjectFor(0, seq))
		st.rcpts = append([]mail.Address(nil), st.rcpts...)
		lb.txns = append(lb.txns, st)
		toISP := st.isp
		if rc.w.remote {
			toISP = (st.isp + 1) % rc.fed.ISPs
		}
		for _, to := range st.rcpts {
			lb.msgs = append(lb.msgs, sampleMsg{id: st.id, fromISP: st.isp, toISP: toISP, from: st.from, to: to, msg: st.msg})
		}
	}
	steps := []func() error{
		lb.mailCodec, lb.smtpLayers, lb.admit, lb.hop,
		func() error { return lb.commit(filepath.Join(dir, "commit")) },
		func() error { return lb.walAppend(filepath.Join(dir, "append")) },
		lb.receive,
		lb.controlPlane,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	for name, v := range lb.extra {
		res.Layers[name] = v
	}
	p50 := map[string]float64{}
	for name, layer := range map[string]string{
		"smtp.txn_us": layerSMTP, "mail.encode_us": layerEncode, "mail.decode_us": layerDecode,
		"isp.admit_us": layerAdmit, "mempool.hop_us": layerHop, "isp.commit_us": layerCommit,
		"persist.append_us": layerAppend, "core.relay_us": layerRelay, "isp.receive_us": layerReceive,
	} {
		p50[layer] = lb.p50(layer)
		res.Layers[name] = metric{p50[layer], "us"}
	}
	res.Layers["mail.allocs_per_msg"] = metric{lb.allocs[layerEncode] + lb.allocs[layerDecode], "count"}
	relays := 0
	for _, s := range lb.spans {
		if s.Name == layerRelay {
			relays++
		}
	}
	res.Layers["core.relay_spans"] = metric{float64(relays), "count"}

	// What the layers on one message's way add up to, against what that
	// message took end to end when it waited for nothing.
	sum := p50[layerSMTP] + p50[layerAdmit] + p50[layerHop] + p50[layerCommit] + p50[layerAppend]
	if rc.w.remote {
		sum += p50[layerRelay] + p50[layerReceive] + p50[layerAppend]
	}
	if e2e := res.Layers["seq.deliver_p50_ms"].Value; e2e > 0 {
		res.Layers["layer_sum_over_e2e"] = metric{sum / 1000 / e2e, "ratio"}
	}

	tr.spans = append(tr.spans, lb.spans...)
	sampled := map[int64]bool{}
	for _, t := range lb.txns {
		sampled[t.id] = true
	}
	res.LayerTable = ledger(tr.spans, sampled, lb.allocs)
	return nil
}

// clones returns a fresh copy of every sample message addressed to its
// recipient, made outside the timed calls.
func (lb *layerBench) clones() (msgs []*mail.Message, prep func(int)) {
	msgs = make([]*mail.Message, len(lb.msgs))
	return msgs, func(i int) {
		msgs[i] = lb.msgs[i].msg.Clone()
		msgs[i].To = lb.msgs[i].to
	}
}

func (lb *layerBench) msgIDOf(i int) int64 { return lb.msgs[i].id }
func (lb *layerBench) txnIDOf(i int) int64 { return lb.txns[i].id }
func noPrep(int)                           {}

// mailCodec times Encode, and Decode plus the header reads the daemon
// does on every message.
func (lb *layerBench) mailCodec() error {
	raw := make([]string, len(lb.txns))
	_, err := lb.each(layerEncode, layerSMTP, len(lb.txns), lb.txnIDOf, noPrep, func(i int) error {
		raw[i] = lb.txns[i].msg.Encode()
		return nil
	})
	if err != nil {
		return err
	}
	want := mail.ClassNormal
	if lb.rc.w.list {
		want = mail.ClassList
	}
	_, err = lb.each(layerDecode, layerSMTP, len(lb.txns), lb.txnIDOf, noPrep, func(i int) error {
		m, err := mail.Decode(raw[i])
		if err != nil {
			return err
		}
		if m.Subject() == "" || m.Class() != want {
			return errors.New("decoded message lost its headers")
		}
		return nil
	})
	return err
}

// sinkBackend accepts every transaction and does nothing with it.
type sinkBackend struct{}

func (sinkBackend) NewSession(string, net.Addr) (smtp.Session, error) { return sinkBackend{}, nil }
func (sinkBackend) Mail(mail.Address) error                           { return nil }
func (sinkBackend) Rcpt(mail.Address) error                           { return nil }
func (sinkBackend) Data(mail.Address, *mail.Message) error            { return nil }
func (sinkBackend) Reset()                                            {}

// smtpLayers times a transaction on a persistent session against a
// server that does nothing (smtp.txn) and, for cross-ISP mail, what the
// daemon's relay does per message: smtp.SendMail, which dials, greets,
// sends and quits (core.relay).
func (lb *layerBench) smtpLayers() error {
	srv := &smtp.Server{Domain: "sink.zmail.test", Backend: sinkBackend{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns once Close below closes the listener
		close(served)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	addr := ln.Addr().String()

	cl, err := dialClient(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var sent int64
	start := time.Now()
	_, err = lb.each(layerSMTP, spanSubmit, len(lb.txns), lb.txnIDOf, noPrep, func(i int) error {
		t := &lb.txns[i]
		sent += int64(len(t.msg.Body))
		return cl.Send(t.from, t.rcpts, t.msg)
	})
	if err != nil {
		return err
	}
	lb.extra["smtp.mb_per_s"] = metric{float64(sent) / 1e6 / time.Since(start).Seconds(), "MB/s"}
	if !lb.rc.w.remote {
		return nil
	}

	relay := func(parent string, msgs []*mail.Message, prep func(int), helo func(i int) string) error {
		_, err := lb.each(layerRelay, parent, len(msgs), lb.msgIDOf, prep, func(i int) error {
			m := msgs[i]
			return smtp.SendMail(addr, helo(i), m.From, []mail.Address{m.To}, m, 30*time.Second)
		})
		return err
	}
	msgs, prep := lb.clones()
	if err := relay(spanDeliver, msgs, prep, func(i int) string { return domainOf(lb.msgs[i].fromISP) }); err != nil {
		return err
	}
	if !lb.rc.w.list {
		return nil
	}
	acks, prepAck := lb.acks()
	return relay(spanAck, acks, prepAck, func(i int) string { return domainOf(lb.msgs[i].toISP) })
}

// acks builds the §5 acknowledgment each sample recipient's ISP sends
// back, the way Engine.generateAck composes it.
func (lb *layerBench) acks() (msgs []*mail.Message, prep func(int)) {
	msgs = make([]*mail.Message, len(lb.msgs))
	return msgs, func(i int) {
		s := lb.msgs[i]
		ack := mail.NewMessage(s.to, s.from, "Ack: "+s.msg.Subject(), "")
		ack.SetClass(mail.ClassAck)
		msgs[i] = ack
	}
}

// engines builds one stand-alone engine per ISP with every user
// registered; walDir, when set, attaches a WAL under it.
func (lb *layerBench) engines(walDir string) ([]*isp.Engine, error) {
	out := make([]*isp.Engine, lb.rc.fed.ISPs)
	for i := range out {
		eng, err := standaloneEngine(lb.rc.fed, i)
		if err != nil {
			return nil, err
		}
		if walDir != "" {
			if err := eng.AttachWAL(walDirOf(walDir, "isp", i)); err != nil {
				return nil, err
			}
		}
		if err := registerUsers(eng, lb.rc.fed); err != nil {
			return nil, err
		}
		out[i] = eng
	}
	return out, nil
}

// admit times Engine.Submit with the queue started: the policy check
// and the enqueue, which is all the SMTP session waits for.
func (lb *layerBench) admit() error {
	engs, err := lb.engines("")
	if err != nil {
		return err
	}
	for _, e := range engs {
		// Deep enough for the whole sample: a full queue would turn the
		// measurement into one of the drain.
		e.StartQueue(isp.QueueConfig{Depth: len(lb.msgs) + 1})
		defer e.StopQueue()
	}
	msgs, prep := lb.clones()
	_, err = lb.each(layerAdmit, spanSubmit, len(msgs), lb.msgIDOf, prep, func(i int) error {
		_, err := engs[lb.msgs[i].fromISP].Submit(msgs[i])
		return err
	})
	return err
}

// hop times the admission queue alone: Offer to the moment a drain
// worker enters Commit, with a commit that does nothing.
func (lb *layerBench) hop() error {
	entered := make(chan time.Duration, 1)
	q := mempool.Start(mempool.Config{Commit: func(*mail.Message) { entered <- sinceEpoch() }})
	defer q.Stop()
	ends := make([]time.Duration, len(lb.msgs))
	spans, err := lb.each(layerHop, spanDeliver, len(lb.msgs), lb.msgIDOf, noPrep, func(i int) error {
		if !q.Offer(lb.msgs[i].msg) {
			return errors.New("queue refused a message")
		}
		ends[i] = <-entered
		return nil
	})
	// The hop ends where the worker entered Commit, not where its word
	// of it got back here.
	for i := range spans {
		spans[i].End = int64(ends[i])
	}
	return err
}

// commit times Engine.SubmitSync, the ledger commit a drain worker
// runs, first with no WAL and then with one, whose difference is what
// durability adds to a commit.
func (lb *layerBench) commit(walDir string) error {
	const withWAL = "isp.commit+wal"
	for _, dir := range []string{"", walDir} {
		engs, err := lb.engines(dir)
		if err != nil {
			return err
		}
		layer := layerCommit
		if dir != "" {
			layer = withWAL
		}
		msgs, prep := lb.clones()
		_, err = lb.each(layer, spanDeliver, len(msgs), lb.msgIDOf, prep, func(i int) error {
			_, err := engs[lb.msgs[i].fromISP].SubmitSync(msgs[i])
			return err
		})
		for _, e := range engs {
			if cerr := e.CloseWAL(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
	}
	// The attached run exists for this difference; kept as spans it
	// would put the commit on the message's way twice.
	lb.extra["persist.commit_delta_us"] = metric{lb.p50(withWAL) - lb.p50(layerCommit), "us"}
	lb.spans = slices.DeleteFunc(lb.spans, func(s span) bool { return s.Name == withWAL })
	delete(lb.allocs, withWAL)
	return nil
}

// walAppend times WAL.Append alone: the two records a message's commit
// writes (sender and recipient rows, or sender row and credit delta),
// to two segments of a log shaped like an engine's.
func (lb *layerBench) walAppend(dir string) error {
	w, err := persist.CreateWAL(dir, isp.DefaultStripes+1, struct{}{})
	if err != nil {
		return err
	}
	// As long as an engine's send record: kind, name, two deltas and a
	// journal entry carrying a timestamp, a counterparty and a Message-Id.
	row := bytes.Repeat([]byte{0x5a}, 120)
	_, err = lb.each(layerAppend, spanDeliver, len(lb.msgs), lb.msgIDOf, noPrep, func(i int) error {
		if err := w.Append(i%isp.DefaultStripes, row); err != nil {
			return err
		}
		return w.Append((i+7)%isp.DefaultStripes, row)
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// receive times Engine.ReceiveRemote at the recipient's ISP and, for
// list mail, the acknowledgment's arrival back at the sender's.
func (lb *layerBench) receive() error {
	if !lb.rc.w.remote {
		return nil
	}
	engs, err := lb.engines("")
	if err != nil {
		return err
	}
	msgs, prep := lb.clones()
	_, err = lb.each(layerReceive, spanDeliver, len(msgs), lb.msgIDOf, prep, func(i int) error {
		s := lb.msgs[i]
		return engs[s.toISP].ReceiveRemote(domainOf(s.fromISP), msgs[i])
	})
	if err != nil || !lb.rc.w.list {
		return err
	}
	acks, prepAck := lb.acks()
	_, err = lb.each(layerReceive, spanAck, len(acks), lb.msgIDOf, prepAck, func(i int) error {
		s := lb.msgs[i]
		return engs[s.fromISP].ReceiveRemote(domainOf(s.toISP), acks[i])
	})
	return err
}

type discardISP struct{}

func (discardISP) SendISP(int, *wire.Envelope) {}

// controlPlane times what mail-only traffic never reaches — the wire
// codec and the bank's order handling — so the ledger has a row for
// every module. These are not on any message's way and get no spans.
func (lb *layerBench) controlPlane() error {
	const rounds, perRound, orderCalls = 200, 100, 2000
	order := (&wire.BatchOrder{Buy: 1, Sell: 1, Nonce: 1}).MarshalBinary()
	env := &wire.Envelope{Kind: wire.KindBatchOrder, From: 0, Payload: order}
	var frame bytes.Buffer
	if err := wire.WriteEnvelope(&frame, env); err != nil {
		return err
	}
	var codec []float64
	var buf []byte
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < perRound; i++ {
			buf = env.AppendBinary(buf[:0])
			if _, err := wire.ReadEnvelope(bytes.NewReader(frame.Bytes())); err != nil {
				return err
			}
		}
		codec = append(codec, float64(time.Since(start).Nanoseconds())/perRound)
	}
	lb.extra["wire.encode_ns"] = metric{median(codec), "ns"}

	bk, err := bank.New(bank.Config{NumISPs: 2, InitialAccount: 1 << 40, Transport: discardISP{}, OwnSealer: crypto.Null{}})
	if err != nil {
		return err
	}
	if err := bk.Enroll(0, crypto.Null{}); err != nil {
		return err
	}
	var orders []float64
	for n := uint64(1); n <= orderCalls; n++ {
		env.Payload = (&wire.BatchOrder{Buy: 1, Sell: 1, Nonce: n}).MarshalBinary()
		start := time.Now()
		if err := bk.Handle(env); err != nil {
			return err
		}
		orders = append(orders, us(time.Since(start)))
	}
	lb.extra["bank.order_us"] = metric{median(orders), "us"}
	return nil
}
