package isp

import (
	"fmt"
	"slices"

	"zmail/internal/mail"
	"zmail/internal/money"
	"zmail/internal/trace"
)

// SubmitSync accepts a message from a local user and commits it to the
// ledger before returning, routing each envelope recipient per §4.1.
// The From address must belong to this ISP. For paid paths the sender
// is charged one e-penny per recipient and, unless the message is an
// acknowledgment, the daily limit is enforced. During a snapshot freeze
// the message is buffered whole and charged at thaw.
//
// A message with several envelope recipients (mail.Message.Rcpts)
// commits as one transaction: each local recipient is one transfer, as
// a one-recipient message's is; the k recipients at one compliant peer
// share one charge of k, one WAL record, one credit add and one relayed
// message; those at one other domain share one unpaid send. A group
// that fails does not stop the others; the outcome is the first
// group's, the error the first failure. A coalesced acknowledgment
// (one carrying mail.HeaderAckCount, see ack.go) commits as the single
// acks it stands for, in one transaction (sendAcks).
//
// SubmitSync is the synchronous half of the submit surface: the
// deterministic simulator, tests, and golden paths call it directly so
// seeded output is reproducible. Latency-sensitive front ends (SMTP
// DATA) call Submit instead, which runs the admission policy inline
// and defers this commit to the drain workers (see admit.go).
//
// SubmitSync is safe for concurrent use: senders in different account
// stripes proceed fully in parallel, and the per-peer credit update is
// a lock-free atomic add.
func (e *Engine) SubmitSync(msg *mail.Message) (SendOutcome, error) {
	start := e.cfg.Clock.Now()
	var em emitQueue
	outcome, err := e.submit(&em, msg, false)
	e.lat.submit.Observe(e.cfg.Clock.Now().Sub(start))
	em.run()
	return outcome, err
}

// traceFor resolves the flow ID a message travels under: an existing
// X-Zmail-Trace header wins (the message entered the system elsewhere —
// a thawed buffer entry, a mailing-list ack chaining to the list
// message's flow), otherwise a fresh ID is minted and stamped. With no
// tracer configured the message stays untraced and unstamped.
func (e *Engine) traceFor(msg *mail.Message) trace.ID {
	if tid, ok := trace.ParseID(msg.Header(mail.HeaderTrace)); ok {
		return tid
	}
	tid := e.tracer.Next()
	if !tid.IsZero() {
		msg.SetHeader(mail.HeaderTrace, tid.String())
	}
	return tid
}

func (e *Engine) submit(em *emitQueue, msg *mail.Message, thawing bool) (SendOutcome, error) {
	rcpts := msg.Recipients()
	isAck := msg.Class() == mail.ClassAck
	// A coalesced ack counts as the single acks it stands for.
	var ackers []string
	n := len(rcpts)
	if isAck && msg.Header(mail.HeaderAckCount) != "" {
		var err error
		if ackers, err = coalescedAckers(msg); err != nil {
			return 0, err
		}
		n = len(ackers)
	}
	e.stats.submitted.Add(int64(n))

	if msg.From.Domain != e.cfg.Domain {
		return 0, fmt.Errorf("isp: sender %v is not a %s user", msg.From, e.cfg.Domain)
	}
	if msg.ID() == "" {
		msg.SetHeader(mail.HeaderMsgID, e.msgIDs.Next())
	}
	// Mint (or adopt) the flow ID before any branch, so even buffered
	// mail carries its ID into the thaw-time charge. A message has one
	// Message-Id and one flow ID, however many recipients it has.
	tid := e.traceFor(msg)

	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()

	ss := e.stripeFor(msg.From.Local)

	// §4.4: a frozen ISP buffers outgoing mail; "these emails will be
	// buffered and sent right after the timeout expires". Charging
	// happens at thaw so the balance check reflects reality then. The
	// sender must still exist now — buffering mail for nobody would
	// just defer the error. The message is buffered whole and replayed
	// whole.
	if e.frozen && !thawing {
		e.lockStripe(ss)
		_, ok := ss.users[msg.From.Local]
		ss.mu.Unlock()
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.From.Local)
		}
		e.mu.Lock()
		e.outbox = append(e.outbox, msg)
		e.mu.Unlock()
		e.stats.buffered.Add(int64(n))
		e.tracer.Record(tid, "buffer", 0, "frozen")
		return SentBuffered, nil
	}

	if ackers != nil {
		return e.sendAcks(em, msg, ackers, tid, thawing)
	}
	if len(rcpts) > 1 {
		return e.submitEnvelope(em, msg, ss, tid, isAck)
	}
	toIndex, toCompliant, known := e.cfg.Directory.Lookup(msg.To.Domain)
	if msg.To.Domain == e.cfg.Domain {
		return e.sendLocal(em, msg, ss, tid, isAck)
	}
	if known && toCompliant {
		return e.sendPaid(em, msg, ss, toIndex, tid, isAck)
	}
	return e.sendUnpaid(em, msg, ss, toIndex, tid)
}

// submitEnvelope commits a message with several envelope recipients
// (see SubmitSync). The caller holds freezeMu for read.
func (e *Engine) submitEnvelope(em *emitQueue, msg *mail.Message, ss *accountStripe, tid trace.ID, isAck bool) (SendOutcome, error) {
	var outcome SendOutcome
	var firstErr error
	note := func(out SendOutcome, err error) {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if outcome == 0 {
			outcome = out
		}
	}
	// Remote recipients, grouped by domain in order of first appearance.
	var groups [][]mail.Address
	for _, to := range msg.Rcpts {
		if to.Domain == e.cfg.Domain {
			note(e.sendLocal(em, msg.CopyFor(to), ss, tid, isAck))
			continue
		}
		i := slices.IndexFunc(groups, func(g []mail.Address) bool { return g[0].Domain == to.Domain })
		if i < 0 {
			i = len(groups)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], to)
	}
	// A peer's group debits k and credits k.
	for _, g := range groups {
		out := envelopeFor(msg, g)
		toIndex, toCompliant, known := e.cfg.Directory.Lookup(out.To.Domain)
		if known && toCompliant {
			note(e.sendPaid(em, out, ss, toIndex, tid, isAck))
		} else {
			note(e.sendUnpaid(em, out, ss, toIndex, tid))
		}
	}
	return outcome, firstErr
}

// envelopeFor returns the message that carries rcpts, some of msg's
// recipients, to their one domain: msg itself when they are all of
// them, otherwise a copy addressed to rcpts alone.
func envelopeFor(msg *mail.Message, rcpts []mail.Address) *mail.Message {
	if len(rcpts) == len(msg.Recipients()) {
		return msg
	}
	out := msg.CopyFor(rcpts[0])
	if len(rcpts) > 1 {
		out.Rcpts = rcpts
	}
	return out
}

// sendLocal is the paper's i = j branch for msg.To: one atomic
// transfer between two balances, which may live in two different
// stripes. The caller holds freezeMu for read.
func (e *Engine) sendLocal(em *emitQueue, msg *mail.Message, ss *accountStripe, tid trace.ID, isAck bool) (SendOutcome, error) {
	rs := e.stripeFor(msg.To.Local)
	e.lockTwoStripes(ss, rs)
	sender, ok := ss.users[msg.From.Local]
	if !ok {
		unlockTwoStripes(ss, rs)
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.From.Local)
	}
	recipient, ok := rs.users[msg.To.Local]
	if !ok {
		unlockTwoStripes(ss, rs)
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.To.Local)
	}
	if err := e.charge(em, sender, 1, isAck); err != nil {
		unlockTwoStripes(ss, rs)
		e.tracer.Record(tid, "charge", 0, "rejected")
		return 0, err
	}
	recipient.balance++
	kind := EntrySent
	if isAck {
		kind = EntryAckSent
	}
	sentDelta := int64(1)
	if isAck {
		sentDelta = 0
	}
	se := e.journalUser(sender, kind, msg.To.String(), -1, 0, msg.ID())
	re := e.journalUser(recipient, EntryReceived, msg.From.String(), +1, 0, msg.ID())
	e.walSend(ss.idx, sender.name, -1, sentDelta, se)
	e.walSend(rs.idx, recipient.name, +1, 0, re)
	unlockTwoStripes(ss, rs)
	e.tracer.Record(tid, "charge", -1, "local")
	e.tracer.Record(tid, "credit", +1, "local")
	e.deliver(em, msg.To.Local, msg)
	return SentLocal, nil
}

// sendPaid is the paper's compliant[j] branch for the k recipients of
// msg, all at peer toIndex: charge the sender k, raise our claim
// against the peer by k, transmit msg once. The sender's journal gets
// one entry per recipient, logged in one record. The caller holds
// freezeMu for read.
func (e *Engine) sendPaid(em *emitQueue, msg *mail.Message, ss *accountStripe, toIndex int, tid trace.ID, isAck bool) (SendOutcome, error) {
	rcpts := msg.Recipients()
	k := len(rcpts)
	e.lockStripe(ss)
	sender, ok := ss.users[msg.From.Local]
	if !ok {
		ss.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.From.Local)
	}
	if err := e.charge(em, sender, k, isAck); err != nil {
		ss.mu.Unlock()
		e.tracer.Record(tid, "charge", 0, "rejected")
		return 0, err
	}
	kind := EntrySent
	if isAck {
		kind = EntryAckSent
	}
	sentDelta := int64(k)
	if isAck {
		sentDelta = 0
	}
	var one [1]Entry
	entries := one[:0]
	if k > 1 {
		entries = make([]Entry, 0, k)
	}
	for _, to := range rcpts {
		entries = append(entries, e.journalUser(sender, kind, to.String(), -1, 0, msg.ID()))
	}
	e.walSend(ss.idx, sender.name, -int64(k), sentDelta, entries...)
	ss.mu.Unlock()
	if !e.cheat.Load() {
		e.credit[toIndex].Add(int64(k))
		e.walCreditAdd(toIndex, int64(k))
	}
	e.stats.sentPaid.Add(int64(k))
	e.tracer.Record(tid, "charge", -int64(k), "paid")
	em.add(func() { e.cfg.Transport.SendMail(toIndex, msg.To.Domain, msg) })
	return SentPaid, nil
}

// sendUnpaid is the paper's ~compliant[j] branch for the recipients of
// msg, all at one non-compliant ISP or foreign domain (toIndex -1):
// plain SMTP, no charge, no limit — but still only for a real local
// sender.
func (e *Engine) sendUnpaid(em *emitQueue, msg *mail.Message, ss *accountStripe, toIndex int, tid trace.ID) (SendOutcome, error) {
	e.lockStripe(ss)
	_, ok := ss.users[msg.From.Local]
	ss.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, msg.From.Local)
	}
	e.stats.sentUnpaid.Add(int64(len(msg.Recipients())))
	e.tracer.Record(tid, "send", 0, "unpaid")
	em.add(func() { e.cfg.Transport.SendMail(toIndex, msg.To.Domain, msg) })
	return SentUnpaid, nil
}

// charge debits n e-pennies and bumps the daily counter by n. The
// caller holds the sender's stripe lock. Acks bypass the limit: they
// are generated by the machinery, not the user, and each is funded by
// an e-penny the user just received.
//
// The first limit rejection of a user's day also triggers the §5
// zombie warning ("the user is sent a warning message to check for
// viruses") — delivered free of charge into the user's own mailbox.
func (e *Engine) charge(em *emitQueue, sender *user, n int, isAck bool) error {
	if sender.balance < money.EPenny(n) {
		e.stats.balanceRejects.Add(1)
		return ErrInsufficientBalance
	}
	if !isAck && sender.sent+int64(n) > sender.limit {
		e.stats.limitRejects.Add(1)
		if !sender.warnedToday {
			sender.warnedToday = true
			e.walWarn(sender.name)
			e.stats.zombieWarnings.Add(1)
			e.queueZombieWarning(em, sender.name, sender.limit)
		}
		return ErrLimitExceeded
	}
	// The debit pairs with recipient.balance++ (local) or credit.Add(k)
	// (paid remote) in the caller — except in cheat mode (experiment
	// E4), which skips the credit on purpose; the bank's §4.4
	// verification, not local conservation, is what catches a cheating
	// ISP. Cheat mode leaves this debit uncredited deliberately.
	sender.balance -= money.EPenny(n)
	if !isAck {
		sender.sent += int64(n)
	}
	return nil
}

// queueZombieWarning queues the postmaster warning for the user who
// just tripped their daily limit.
func (e *Engine) queueZombieWarning(em *emitQueue, name string, limit int64) {
	warning := mail.NewMessage(
		mail.Address{Local: "postmaster", Domain: e.cfg.Domain},
		mail.Address{Local: name, Domain: e.cfg.Domain},
		"Warning: daily send limit reached",
		fmt.Sprintf("Your account hit its daily limit of %d messages and further "+
			"outgoing mail is blocked until tomorrow. If you did not send this much "+
			"mail, your computer may be infected with an email virus; please check "+
			"it before raising the limit.", limit),
	)
	warning.SetHeader(mail.HeaderMsgID, e.msgIDs.Next())
	em.add(func() { e.cfg.Transport.DeliverLocal(name, warning) })
}

// deliver routes an inbound message to its local destination:
// acknowledgments go to the ack sink, list mail triggers an automatic
// acknowledgment first (§5), everything else goes to the mailbox.
// Side effects are queued on em and run after all locks are released.
func (e *Engine) deliver(em *emitQueue, local string, msg *mail.Message) {
	switch msg.Class() {
	case mail.ClassAck:
		e.stats.acksReceived.Add(1)
		em.add(func() { e.cfg.Transport.DeliverAck(local, msg) })
	case mail.ClassList:
		e.stats.deliveredLocal.Add(1)
		em.add(func() { e.cfg.Transport.DeliverLocal(local, msg) })
		em.add(func() { e.generateAck(local, msg) })
	default:
		e.stats.deliveredLocal.Add(1)
		em.add(func() { e.cfg.Transport.DeliverLocal(local, msg) })
	}
}

// ReceiveRemote accepts a message arriving from a peer ISP (the SMTP
// server path). fromDomain identifies the transmitting ISP — in a real
// deployment it is authenticated by the SMTP session (connecting IP /
// HELO verification); here it is taken from the session metadata the
// transport provides. Per §4.1, mail from a compliant peer earns each
// recipient one e-penny and decrements our credit entry for that peer
// by one; mail from anyone else is subject to the configured
// unpaid-mail policy.
//
// A message with several envelope recipients is taken all or nothing:
// every recipient must be a user of this domain before any is
// credited, so a refusal means nobody was paid and the sender may
// retry each recipient on its own. Paid recipients are then credited
// stripe by stripe, in ascending stripe order, each stripe's records
// logged in one write, and the credit change for the whole transaction
// is one add and one record, all under one freeze read hold, so the
// transaction falls in one billing period. Each recipient still gets
// its own copy; the list recipients of one transaction share one
// coalesced acknowledgment (see generateAcks). Unpaid mail is
// classified once per message, before the freeze read hold.
//
// A coalesced acknowledgment (an ack carrying mail.HeaderAckCount) is
// checked whole before anyone is credited; see receiveAcks.
//
// ReceiveRemote is safe for concurrent use; inbound mail keeps flowing
// during a snapshot freeze (the §4.4 quiet period exists precisely so
// in-flight mail drains and gets counted before the report).
func (e *Engine) ReceiveRemote(fromDomain string, msg *mail.Message) error {
	start := e.cfg.Clock.Now()
	var em emitQueue
	err := e.receiveRemote(&em, fromDomain, msg)
	e.lat.receive.Observe(e.cfg.Clock.Now().Sub(start))
	em.run()
	return err
}

func (e *Engine) receiveRemote(em *emitQueue, fromDomain string, msg *mail.Message) error {
	rcpts := msg.Recipients()
	for _, to := range rcpts {
		if to.Domain != e.cfg.Domain {
			return fmt.Errorf("isp: message for %v relayed to wrong ISP %s", to, e.cfg.Domain)
		}
	}
	fromIndex, fromCompliant, known := e.cfg.Directory.Lookup(fromDomain)
	paid := known && fromCompliant
	if msg.Class() == mail.ClassAck && msg.Header(mail.HeaderAckCount) != "" {
		return e.receiveAcks(em, fromIndex, paid, msg)
	}
	// Users are never deleted, so one found here is still there when it
	// is credited below. A paid single recipient is looked up under its
	// stripe lock instead.
	if len(rcpts) > 1 || !paid {
		for _, to := range rcpts {
			if _, ok := e.User(to.Local); !ok {
				return fmt.Errorf("%w: %q", ErrUnknownUser, to.Local)
			}
		}
	}
	// The spam filter sees each message once, after the recipients are
	// known to exist and before the freeze read hold.
	keep := true
	if !paid && e.cfg.Policy == FilterUnpaid && e.cfg.Filter != nil {
		keep = e.cfg.Filter(msg)
	}

	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()

	// Adopt the sender's flow ID; foreign mail has no header and stays
	// untraced (zero ID spans are recorded but unlinked).
	tid, _ := trace.ParseID(msg.Header(mail.HeaderTrace))
	if paid {
		return e.receivePaid(em, msg, fromIndex, tid)
	}
	for _, to := range rcpts {
		m := msg
		if len(rcpts) > 1 {
			m = msg.CopyFor(to)
		}
		e.stats.receivedUnpaid.Add(1)
		if e.cfg.Policy == RejectUnpaid || !keep {
			e.stats.discarded.Add(1)
			e.tracer.Record(tid, "receive", 0, "discarded")
			continue
		}
		if e.cfg.Policy == TagUnpaid {
			m.SetHeader(HeaderUnpaid, "yes")
		}
		e.stats.deliveredLocal.Add(1)
		e.tracer.Record(tid, "receive", 0, "delivered")
		local := to.Local
		em.add(func() { e.cfg.Transport.DeliverLocal(local, m) })
	}
	return nil
}

// receivePaid credits the recipients of msg, paid mail from the peer
// at fromIndex: one e-penny each, one record per recipient written
// stripe by stripe, and one credit record for the transaction. The
// caller holds freezeMu for read and has checked that every recipient
// of a multi-recipient message exists.
func (e *Engine) receivePaid(em *emitQueue, msg *mail.Message, fromIndex int, tid trace.ID) error {
	rcpts := msg.Recipients()
	order := rcpts
	var one [1][]byte
	recs := one[:0]
	if len(rcpts) > 1 {
		// Visit the recipients in ascending stripe order, the package's
		// lock order, so each stripe is locked once.
		order = slices.Clone(rcpts)
		slices.SortStableFunc(order, func(a, b mail.Address) int {
			return e.stripeFor(a.Local).idx - e.stripeFor(b.Local).idx
		})
		recs = make([][]byte, 0, len(rcpts))
	}
	from, id := msg.From.String(), msg.ID()
	for len(order) > 0 {
		rs := e.stripeFor(order[0].Local)
		recs = recs[:0]
		e.lockStripe(rs)
		for ; len(order) > 0 && e.stripeFor(order[0].Local) == rs; order = order[1:] {
			recipient, ok := rs.users[order[0].Local]
			if !ok {
				rs.mu.Unlock()
				return fmt.Errorf("%w: %q", ErrUnknownUser, order[0].Local)
			}
			if rec := e.creditReceived(recipient, fromIndex, from, id); rec != nil {
				recs = append(recs, rec)
			}
		}
		e.walBatch(rs.idx, recs)
		rs.mu.Unlock()
	}
	k := int64(len(rcpts))
	e.walCreditAdd(fromIndex, -k)
	e.stats.receivedPaid.Add(k)
	e.tracer.Record(tid, "transfer", -k, "paid")
	e.tracer.Record(tid, "credit", +k, "delivered")
	// The list recipients of one transaction share one coalesced ack; a
	// lone recipient's list mail is acked by deliver, as other mail is
	// delivered.
	list := msg.Class() == mail.ClassList && len(rcpts) > 1
	var ackers []string
	for _, to := range rcpts {
		m := msg
		if len(rcpts) > 1 {
			m = msg.CopyFor(to)
		}
		if !list {
			e.deliver(em, to.Local, m)
			continue
		}
		e.stats.deliveredLocal.Add(1)
		em.add(func() { e.cfg.Transport.DeliverLocal(to.Local, m) })
		ackers = append(ackers, to.Local)
	}
	if list {
		em.add(func() { e.generateAcks(ackers, msg) })
	}
	return nil
}

// creditReceived is one recipient's share of a paid receive: the
// e-penny the recipient earns, paired with the one our claim against
// the sending peer gives up, and its statement line. It returns the
// line's WAL record for the caller's stripe batch; the caller logs the
// credit change once for the whole transaction. from and id are the
// message's sender and Message-Id. Caller holds the recipient's stripe
// lock and freezeMu for read.
func (e *Engine) creditReceived(recipient *user, fromIndex int, from, id string) []byte {
	recipient.balance++
	e.credit[fromIndex].Add(-1)
	re := e.journalUser(recipient, EntryReceived, from, +1, 0, id)
	return e.walSendRecord(recipient.name, +1, 0, re)
}

// BuyEPennies moves x e-pennies from the ISP pool to a user in exchange
// for real pennies from their deposit account (§4.2). The freeze read
// lock keeps the pool→balance move invisible to whole-ledger snapshots
// until it is complete.
func (e *Engine) BuyEPennies(name string, x int64) error {
	if x <= 0 {
		return ErrBadAmount
	}
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	s := e.stripeFor(name)
	e.lockStripe(s)
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	if int64(u.account) < x {
		return ErrInsufficientFunds
	}
	e.mu.Lock()
	if int64(e.avail) < x {
		avail := e.avail
		e.mu.Unlock()
		return fmt.Errorf("%w: need %d, pool has %v", ErrPoolExhausted, x, avail)
	}
	e.avail -= money.EPenny(x)
	e.mu.Unlock()
	u.account -= money.Penny(x)
	u.balance += money.EPenny(x)
	en := e.journalUser(u, EntryBuy, "", +x, -x, "")
	e.walTrade(s.idx, u.name, -x, +x, -x, en)
	return nil
}

// SellEPennies moves x e-pennies from a user back to the pool in
// exchange for real pennies (§4.2).
func (e *Engine) SellEPennies(name string, x int64) error {
	if x <= 0 {
		return ErrBadAmount
	}
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	s := e.stripeFor(name)
	e.lockStripe(s)
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	if int64(u.balance) < x {
		return ErrInsufficientBalance
	}
	u.balance -= money.EPenny(x)
	u.account += money.Penny(x)
	e.mu.Lock()
	e.avail += money.EPenny(x)
	e.mu.Unlock()
	en := e.journalUser(u, EntrySell, "", -x, +x, "")
	e.walTrade(s.idx, u.name, +x, -x, +x, en)
	return nil
}

// Deposit adds real pennies to a user's account.
func (e *Engine) Deposit(name string, amount money.Penny) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	s := e.stripeFor(name)
	e.lockStripe(s)
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	u.account += amount
	e.journalUser(u, EntryDeposit, "", 0, int64(amount), "")
	e.walUserPut(s.idx, u, 0)
	return nil
}

// Withdraw removes real pennies from a user's account.
func (e *Engine) Withdraw(name string, amount money.Penny) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	s := e.stripeFor(name)
	e.lockStripe(s)
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	if u.account < amount {
		return ErrInsufficientFunds
	}
	u.account -= amount
	e.journalUser(u, EntryWithdraw, "", 0, -int64(amount), "")
	e.walUserPut(s.idx, u, 0)
	return nil
}
