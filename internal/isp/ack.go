package isp

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"zmail/internal/mail"
	"zmail/internal/money"
	"zmail/internal/trace"
)

// This file is the §5 acknowledgment: the automatic email with which a
// list recipient's ISP "returns the e-penny back to the distributor".
//
// A list message delivered to one local user is acknowledged by one
// ack from that user, exactly as the paper describes it. A list
// transaction received for k ≥ 2 local users is acknowledged by one
// coalesced ack instead: one message of class ack, submitted and
// relayed once, whose X-Zmail-Ack-Count header is k and whose body
// names the k ackers, one local part per line. Each acker is still
// charged its own e-penny and the distributor still earns k, so §5's
// refund is unchanged; what is saved is k-1 submissions, relays and
// credit records at each end.

// ErrBadAck reports a malformed coalesced acknowledgment. It is
// refused whole: nobody is charged or credited for it.
var ErrBadAck = errors.New("isp: malformed coalesced acknowledgment")

// maxAckCount bounds the ackers one coalesced ack names: the most
// recipients one SMTP transaction may carry.
const maxAckCount = 100

// coalescedAckers returns the acker local parts a coalesced ack names,
// after checking the whole message: a count of 2 to maxAckCount equal
// to the number of body lines, every line a bare local part, and no
// name twice. Only ack-class mail is a coalesced ack; on any other
// class the count header means nothing, and callers do not ask.
func coalescedAckers(msg *mail.Message) ([]string, error) {
	k, err := strconv.Atoi(msg.Header(mail.HeaderAckCount))
	if err != nil || k < 2 || k > maxAckCount {
		return nil, fmt.Errorf("%w: count %q", ErrBadAck, msg.Header(mail.HeaderAckCount))
	}
	names := strings.Split(msg.Body, "\n")
	if len(names) != k {
		return nil, fmt.Errorf("%w: count %d, %d names", ErrBadAck, k, len(names))
	}
	for i, name := range names {
		if !bareLocal(name) {
			return nil, fmt.Errorf("%w: name %q", ErrBadAck, name)
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("%w: %q named twice", ErrBadAck, name)
		}
	}
	return names, nil
}

// bareLocal reports whether s can stand for a mailbox on a line of its
// own: a non-empty local part with no '@', no space and no control
// byte.
func bareLocal(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == 0x7f || c == '@' {
			return false
		}
	}
	return true
}

// newAck builds local's §5 acknowledgment of listMsg, addressed back to
// the distributor.
func (e *Engine) newAck(local string, listMsg *mail.Message) *mail.Message {
	ack := mail.NewMessage(
		mail.Address{Local: local, Domain: e.cfg.Domain},
		listMsg.From,
		"Ack: "+listMsg.Subject(),
		"",
	)
	ack.SetClass(mail.ClassAck)
	if id := listMsg.ID(); id != "" {
		ack.SetHeader(mail.HeaderAckFor, id)
	}
	// The ack continues the list message's flow: copying the trace
	// header chains the whole §5 round trip — distribute, deliver, ack,
	// refund — under the distributor's original ID.
	if t := listMsg.Header(mail.HeaderTrace); t != "" {
		ack.SetHeader(mail.HeaderTrace, t)
	}
	return ack
}

// ackFrom returns ack re-sent by ackers, local parts at ack's From
// domain: for one acker, the single ack that acker would have sent —
// its own From, no count header, an empty body; for several, the
// coalesced ack naming them, from the first. Every other header is
// kept.
func ackFrom(ack *mail.Message, ackers []string) *mail.Message {
	out := mail.NewMessage(mail.Address{Local: ackers[0], Domain: ack.From.Domain}, ack.To, ack.Subject(), "")
	for _, key := range ack.HeaderKeys() {
		switch key {
		case "From", "To", "Subject", mail.HeaderAckCount:
			continue
		}
		out.SetHeader(key, ack.Header(key))
	}
	if len(ackers) > 1 {
		out.SetHeader(mail.HeaderAckCount, strconv.Itoa(len(ackers)))
		out.Body = strings.Join(ackers, "\n")
	}
	return out
}

// generateAck builds and submits local's §5 acknowledgment of a
// delivered mailing-list message.
func (e *Engine) generateAck(local string, listMsg *mail.Message) {
	e.stats.acksGenerated.Add(1)
	// Submit via the synchronous path: the ack pays one e-penny (the one
	// the list message just delivered) back toward the distributor, and
	// must not re-enter the admission queue it may be draining from.
	if _, err := e.SubmitSync(e.newAck(local, listMsg)); err != nil {
		// An unfunded ack means the recipient's balance was already
		// drained between delivery and ack; drop it. The distributor's
		// pruning logic treats a missing ack as a dead subscriber.
		e.stats.acksGenerated.Add(-1)
	}
}

// generateAcks acknowledges one list transaction delivered to locals:
// one coalesced ack per maxAckCount of them, submitted once through
// SubmitSync, so a freeze buffers it whole and thaw charges it whole.
// A lone acker, a name said twice or not fit for a line of the body,
// and every acker of a distributor that is not at a compliant peer get
// single acks, as does every acker of a cheating engine (experiment
// E4), whose sendPaid skips the credit of each.
func (e *Engine) generateAcks(locals []string, listMsg *mail.Message) {
	var many, single []string
	_, compliant, known := e.cfg.Directory.Lookup(listMsg.From.Domain)
	coalesce := known && compliant && listMsg.From.Domain != e.cfg.Domain && !e.cheat.Load()
	for i, l := range locals {
		if coalesce && bareLocal(l) && !slices.Contains(locals[:i], l) {
			many = append(many, l)
			continue
		}
		single = append(single, l)
	}
	var groups [][]string
	for len(many) > 0 {
		chunk := many[:min(len(many), maxAckCount)]
		many = many[len(chunk):]
		groups = append(groups, chunk)
	}
	for _, l := range single {
		groups = append(groups, []string{l})
	}
	for _, ackers := range groups {
		if len(ackers) == 1 {
			e.generateAck(ackers[0], listMsg)
			continue
		}
		// sendAcks takes back the acks it drops, as generateAck does.
		e.stats.acksGenerated.Add(int64(len(ackers)))
		_, _ = e.SubmitSync(ackFrom(e.newAck(ackers[0], listMsg), ackers))
	}
}

// sendAcks commits a coalesced ack: each acker is charged one e-penny,
// exempt from the daily limit, with one WAL write per stripe touched;
// an acker who cannot pay is dropped, as a failed single ack is; the
// claim against the distributor's ISP rises by the k′ acks paid, in
// one add and one record; and the ack, naming those k′, is relayed
// once. Outside a thaw the dropped acks are taken back from
// Stats.AcksGenerated, as generateAck takes back a failed one. It
// fails only when nobody could pay. The caller holds freezeMu for
// read.
func (e *Engine) sendAcks(em *emitQueue, msg *mail.Message, ackers []string, tid trace.ID, thawing bool) (SendOutcome, error) {
	toIndex, toCompliant, known := e.cfg.Directory.Lookup(msg.To.Domain)
	if !known || !toCompliant || msg.To.Domain == e.cfg.Domain || len(msg.Rcpts) > 1 {
		return 0, fmt.Errorf("%w: not for one distributor at a compliant peer", ErrBadAck)
	}
	order := slices.Clone(ackers)
	slices.SortStableFunc(order, func(a, b string) int {
		return e.stripeFor(a).idx - e.stripeFor(b).idx
	})
	paid := make([]string, 0, len(ackers))
	recs := make([][]byte, 0, len(ackers))
	var firstErr error
	to, id := msg.To.String(), msg.ID()
	for len(order) > 0 {
		ss := e.stripeFor(order[0])
		recs = recs[:0]
		e.lockStripe(ss)
		for ; len(order) > 0 && e.stripeFor(order[0]) == ss; order = order[1:] {
			rec, err := e.chargeAck(em, ss, order[0], toIndex, to, id)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			paid = append(paid, order[0])
			if rec != nil {
				recs = append(recs, rec)
			}
		}
		e.walBatch(ss.idx, recs)
		ss.mu.Unlock()
	}
	if !thawing {
		e.stats.acksGenerated.Add(int64(len(paid) - len(ackers)))
	}
	if len(paid) == 0 {
		e.tracer.Record(tid, "charge", 0, "rejected")
		return 0, firstErr
	}
	k := int64(len(paid))
	e.walCreditAdd(toIndex, k)
	e.stats.sentPaid.Add(k)
	e.tracer.Record(tid, "charge", -k, "paid")
	out := msg
	if len(paid) < len(ackers) {
		// Name the payers in the order the ack listed them.
		kept := slices.DeleteFunc(slices.Clone(ackers), func(a string) bool { return !slices.Contains(paid, a) })
		out = ackFrom(msg, kept)
	}
	em.add(func() { e.cfg.Transport.SendMail(toIndex, out.To.Domain, out) })
	return SentPaid, nil
}

// chargeAck is one acker's share of a coalesced ack: the e-penny the
// acker pays, paired with the one our claim against the distributor's
// ISP gains, and its statement line. It returns the line's WAL record
// for the caller's stripe batch; the caller logs the credit change once
// for the whole ack. to and id are the ack's distributor and
// Message-Id. Caller holds ss's lock and freezeMu for read.
func (e *Engine) chargeAck(em *emitQueue, ss *accountStripe, name string, toIndex int, to, id string) ([]byte, error) {
	acker, ok := ss.users[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	if err := e.charge(em, acker, 1, true); err != nil {
		return nil, err
	}
	e.credit[toIndex].Add(1)
	se := e.journalUser(acker, EntryAckSent, to, -1, 0, id)
	return e.walSendRecord(acker.name, -1, 0, se), nil
}

// receiveAcks takes a coalesced ack, an ack-class message carrying
// mail.HeaderAckCount, from the peer at fromIndex. It is checked whole
// before anyone is credited — it must come from a compliant peer for one local distributor and name its ackers as
// coalescedAckers requires — and a refusal credits nobody. The
// distributor then earns k e-pennies in one record of k statement
// lines, one per acker, our claim against the peer falls by k in one
// add and one record, and the ack sink sees k calls, each with the
// single ack that acker would have sent.
func (e *Engine) receiveAcks(em *emitQueue, fromIndex int, paid bool, msg *mail.Message) error {
	if !paid {
		return fmt.Errorf("%w: not from a compliant peer", ErrBadAck)
	}
	if len(msg.Rcpts) > 1 {
		return fmt.Errorf("%w: %d recipients", ErrBadAck, len(msg.Rcpts))
	}
	ackers, err := coalescedAckers(msg)
	if err != nil {
		return err
	}
	// The first acker's single ack is built header by header; the
	// others copy it and change only who it is from.
	singles := make([]*mail.Message, len(ackers))
	froms := make([]string, len(ackers))
	singles[0] = ackFrom(msg, ackers[:1])
	froms[0] = singles[0].Header("From")
	for i := 1; i < len(ackers); i++ {
		one := singles[0].Clone()
		one.From.Local = ackers[i]
		froms[i] = one.From.String()
		one.SetHeader("From", froms[i])
		singles[i] = one
	}
	e.freezeMu.RLock()
	defer e.freezeMu.RUnlock()
	tid, _ := trace.ParseID(msg.Header(mail.HeaderTrace))
	rs := e.stripeFor(msg.To.Local)
	e.lockStripe(rs)
	distributor, ok := rs.users[msg.To.Local]
	if !ok {
		rs.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownUser, msg.To.Local)
	}
	k := int64(len(ackers))
	distributor.balance += money.EPenny(k)
	e.credit[fromIndex].Add(-k)
	entries := make([]Entry, len(ackers))
	id := msg.ID()
	for i, from := range froms {
		entries[i] = e.journalUser(distributor, EntryReceived, from, +1, 0, id)
	}
	e.walSend(rs.idx, distributor.name, k, 0, entries...)
	rs.mu.Unlock()
	e.walCreditAdd(fromIndex, -k)
	e.stats.receivedPaid.Add(k)
	e.stats.acksReceived.Add(k)
	e.tracer.Record(tid, "transfer", -k, "paid")
	e.tracer.Record(tid, "credit", +k, "delivered")
	local := msg.To.Local
	em.add(func() {
		for _, one := range singles {
			e.cfg.Transport.DeliverAck(local, one)
		}
	})
	return nil
}
