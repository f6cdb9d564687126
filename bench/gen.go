package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"zmail/internal/mail"
)

// workload is one traffic mix. The federation is identical for all of
// them; only these four properties differ.
type workload struct {
	name   string
	remote bool // recipients live on the other ISP
	fanout int  // recipients per transaction
	list   bool // X-Zmail-Class: list, so every delivery is acked
	body   int  // body bytes
	why    string
}

var workloads = []workload{
	{name: "local_small", fanout: 1, body: 100,
		why: "one intra-ISP recipient, 100 B: smtp + mail headers + isp admit/commit + one WAL append; the per-message floor"},
	{name: "remote_small", remote: true, fanout: 1, body: 100,
		why: "one cross-ISP recipient: adds core relay (dial per message), peer receive, credit arrays, freeze buffering"},
	{name: "local_large", fanout: 1, body: 32 << 10,
		why: "32 KiB body: per-byte smtp/mail cost dominates, ledger cost constant; a ledger change should not move it"},
	{name: "list_fanout", remote: true, fanout: 16, list: true, body: 100,
		why: "16 cross-ISP list recipients + acks: one sender debited 16x on one stripe, queue bursts, ack refunds, 2x relay"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// choicesPerConn is how many transactions are generated per connection;
// a run that sends more cycles through them again. A user's balance
// moves by at most a handful of e-pennies per cycle, so the starting
// balance outlasts any run the time cap allows.
const choicesPerConn = 1 << 16

// choices is one connection's pre-generated traffic: transaction t is
// sent by user from[t] of ISP isp[t] to rcpt[t*fanout : (t+1)*fanout]
// on that ISP (or the other one, for a remote workload).
type choices struct {
	isp  []uint8
	from []uint32
	rcpt []uint32
}

func (c *choices) len() int { return len(c.from) }

// generate draws every sender and recipient choice for nconn
// connections from seed, before any clock starts.
func generate(w workload, cfg fedConfig, seed int64, nconn, perConn int) []*choices {
	out := make([]*choices, nconn)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		ch := &choices{
			isp:  make([]uint8, perConn),
			from: make([]uint32, perConn),
			rcpt: make([]uint32, perConn*w.fanout),
		}
		for t := 0; t < perConn; t++ {
			ch.isp[t] = uint8(rng.Intn(cfg.ISPs))
			ch.from[t] = uint32(rng.Intn(cfg.UsersPerISP))
			rc := ch.rcpt[t*w.fanout : (t+1)*w.fanout]
			for i := 0; i < len(rc); {
				r := uint32(rng.Intn(cfg.UsersPerISP))
				// Nobody mails themselves, and a list names a user once.
				if (!w.remote && r == ch.from[t]) || slices.Contains(rc[:i], r) {
					continue
				}
				rc[i] = r
				i++
			}
		}
		out[c] = ch
	}
	return out
}

// choiceHash fingerprints the generated stream, so two runs can show
// they saw the same inputs.
func choiceHash(all []*choices) string {
	h := fnv.New64a()
	var b [4]byte
	for _, ch := range all {
		_, _ = h.Write(ch.isp)
		for _, s := range [][]uint32{ch.from, ch.rcpt} {
			for _, v := range s {
				binary.LittleEndian.PutUint32(b[:], v)
				_, _ = h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// makeBody builds n bytes of 76-column text.
func makeBody(n int, seed int64) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ 0123456789"
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.Grow(n)
	for col := 0; b.Len() < n; col++ {
		if col == 76 {
			b.WriteByte('\n')
			col = -1
			continue
		}
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// txn is one SMTP transaction ready to send.
type txn struct {
	isp   int
	from  mail.Address
	rcpts []mail.Address
	msg   *mail.Message
}

// subjectPrefix marks benchmark mail; the Subject is "b<conn>.<seq>".
const subjectPrefix = "b"

func subjectFor(conn int, seq int64) string {
	return subjectPrefix + strconv.Itoa(conn) + "." + strconv.FormatInt(seq, 10)
}

// builder turns choices into messages. Names and addresses are
// formatted once, so building a transaction costs one NewMessage.
type builder struct {
	w       workload
	domains []string
	names   []string
	body    string
}

func newBuilder(w workload, cfg fedConfig, seed int64) *builder {
	b := &builder{w: w, domains: cfg.domains(), body: makeBody(w.body, seed)}
	for u := 0; u < cfg.UsersPerISP; u++ {
		b.names = append(b.names, userName(u))
	}
	return b
}

// build fills t (reusing its recipient slice) with transaction i of ch.
func (b *builder) build(t *txn, ch *choices, i int, subject string) {
	i %= ch.len()
	t.isp = int(ch.isp[i])
	toISP := t.isp
	if b.w.remote {
		toISP = (t.isp + 1) % len(b.domains)
	}
	t.from = mail.Address{Local: b.names[ch.from[i]], Domain: b.domains[t.isp]}
	t.rcpts = t.rcpts[:0]
	for _, r := range ch.rcpt[i*b.w.fanout : (i+1)*b.w.fanout] {
		t.rcpts = append(t.rcpts, mail.Address{Local: b.names[r], Domain: b.domains[toISP]})
	}
	t.msg = mail.NewMessage(t.from, t.rcpts[0], subject, b.body)
	if b.w.list {
		t.msg.SetClass(mail.ClassList)
	}
}
