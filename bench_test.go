// Benchmarks for the Zmail reproduction. Each benchmark backs one
// performance claim or comparison from EXPERIMENTS.md:
//
//   - ledger-path costs (submit/receive) — what a compliant ISP pays
//     per message beyond plain SMTP relaying;
//   - sealed-box NCR/DCR costs versus the Null sealer — the crypto
//     share of the bank control plane;
//   - bank control-plane costs and the snapshot/audit sweep versus
//     federation size — §2.3's "payments are handled in a bulk
//     fashion; therefore, the cost of handling payments is small";
//   - the per-message cost of the §2 baselines (Bayes classification,
//     hashcash minting/verification, SHRED per-payment settlement) on
//     the same hardware;
//   - end-to-end SMTP round-trips and simulator throughput.
package zmail_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zmail"
	"zmail/internal/core"
)

// ---- shared fixtures ------------------------------------------------

var (
	benchBoxOnce sync.Once
	benchBox     *zmail.SealedBox
)

func rsaBox(b *testing.B) *zmail.SealedBox {
	b.Helper()
	benchBoxOnce.Do(func() {
		var err error
		benchBox, err = zmail.GenerateSealedBox(1024, nil)
		if err != nil {
			panic(err)
		}
	})
	return benchBox
}

// benchWorld builds a quiet two-ISP world for ledger benchmarks.
func benchWorld(b *testing.B, users int) *zmail.World {
	b.Helper()
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        2,
		UsersPerISP:    users,
		InitialBalance: 1 << 30, // effectively unlimited for the loop
		DefaultLimit:   1 << 40,
		MinAvail:       1,
		MaxAvail:       1 << 40,
		InitialAvail:   1 << 40,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// ---- ISP ledger path (the Zmail "tax" per message) ------------------

func BenchmarkISPSubmitLocal(b *testing.B) {
	w := benchWorld(b, 2)
	from := zmail.MustParseAddress("u0@isp0.example")
	to := zmail.MustParseAddress("u1@isp0.example")
	eng := w.Engine(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := zmail.NewMessage(from, to, "bench", "body")
		if _, err := eng.SubmitSync(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISPSubmitPaidRemote(b *testing.B) {
	w := benchWorld(b, 2)
	from := zmail.MustParseAddress("u0@isp0.example")
	to := zmail.MustParseAddress("u0@isp1.example")
	eng := w.Engine(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := zmail.NewMessage(from, to, "bench", "body")
		if _, err := eng.SubmitSync(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISPReceiveRemote(b *testing.B) {
	w := benchWorld(b, 2)
	from := zmail.MustParseAddress("u0@isp0.example")
	to := zmail.MustParseAddress("u0@isp1.example")
	eng := w.Engine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := zmail.NewMessage(from, to, "bench", "body")
		if err := eng.ReceiveRemote("isp0.example", msg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- striped ledger: serial vs parallel submission -------------------

// benchSenders returns n distinct sender/recipient address pairs so a
// parallel submitter spreads across the engine's account stripes
// instead of serializing on one user's stripe.
func benchSenders(w *zmail.World, n int) ([]zmail.Address, []zmail.Address) {
	from := make([]zmail.Address, n)
	to := make([]zmail.Address, n)
	for i := 0; i < n; i++ {
		from[i] = zmail.MustParseAddress(w.UserAddr(0, i))
		to[i] = zmail.MustParseAddress(w.UserAddr(1, i))
	}
	return from, to
}

// BenchmarkEngineSend is the serial baseline for the striped engine: one
// goroutine, 64 users, paid remote sends round-robin.
func BenchmarkEngineSend(b *testing.B) {
	const users = 64
	w := benchWorld(b, users)
	from, to := benchSenders(w, users)
	eng := w.Engine(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % users
		msg := zmail.NewMessage(from[k], to[k], "bench", "body")
		if _, err := eng.SubmitSync(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSendParallel drives the same workload from GOMAXPROCS
// goroutines, each submitting as a distinct user. Against the old
// single-mutex engine this serialized completely; with lock striping the
// submitters only meet on the freeze RWMutex read path and the shared
// network queue.
func BenchmarkEngineSendParallel(b *testing.B) {
	const users = 64
	w := benchWorld(b, users)
	from, to := benchSenders(w, users)
	eng := w.Engine(0)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := int(worker.Add(1)-1) % users
		for pb.Next() {
			msg := zmail.NewMessage(from[k], to[k], "bench", "body")
			if _, err := eng.SubmitSync(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineSubmitAsync is the sustained-load admission
// benchmark: the same 64-user paid-remote workload as
// BenchmarkEngineSend, but through the async Submit path — admission
// policy inline, ledger commit on drain workers popping one message at
// a time. The timed quantity is the admission operation — what an
// SMTP DATA response now waits on — submitted in waves against a
// continuously draining queue, with each wave's remaining commits
// flushed outside the timer (they are exactly the work the redesign
// moved off the accept path). `make bench-record` derives
// admissionSpeedupVsSync = EngineSend / EngineSubmitAsync from this
// pair.
func BenchmarkEngineSubmitAsync(b *testing.B) {
	const users = 64
	// Waves half the queue depth can never hit ErrQueueFull: the queue
	// is fully flushed between waves.
	const wave = 512
	w := benchWorld(b, users)
	from, to := benchSenders(w, users)
	eng := w.Engine(0)
	eng.StartQueue(zmail.QueueConfig{
		Depth:   2 * wave,
		Workers: runtime.GOMAXPROCS(0),
	})
	defer eng.StopQueue()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := wave
		if left := b.N - done; n > left {
			n = left
		}
		for i := 0; i < n; i++ {
			k := (done + i) % users
			msg := zmail.NewMessage(from[k], to[k], "bench", "body")
			if _, err := eng.Submit(msg); err != nil {
				b.Fatal(err)
			}
		}
		done += n
		b.StopTimer()
		eng.FlushQueue()
		b.StartTimer()
	}
}

// BenchmarkWorldStep measures a full simulator step — a batch of
// submissions followed by the deterministic drain.
func BenchmarkWorldStep(b *testing.B) {
	const users = 64
	const batch = 256
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        2,
		UsersPerISP:    users,
		InitialBalance: 1 << 30,
		DefaultLimit:   1 << 40,
		MinAvail:       1,
		MaxAvail:       1 << 40,
		InitialAvail:   1 << 40,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]zmail.SendSpec, batch)
	for i := range specs {
		specs[i] = zmail.SendSpec{
			From:    w.UserAddr(i%2, i%users),
			To:      w.UserAddr((i+1)%2, (i+7)%users),
			Subject: "bench",
			Body:    "body",
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range w.SendAll(specs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		w.Run()
	}
}

// ---- crypto: the paper's NCR/DCR ------------------------------------

func BenchmarkSealRSA(b *testing.B) {
	box := rsaBox(b)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.Seal(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenRSA(b *testing.B) {
	box := rsaBox(b)
	sealed, err := box.Seal(make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := box.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealNull(b *testing.B) {
	var s zmail.NullSealer
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNonceNext(b *testing.B) {
	src := zmail.NewNonceSource(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- bank control plane and the audit sweep --------------------------

// BenchmarkSnapshotRound measures one full §4.4 audit (request → freeze
// → report → pairwise verification) against federation size. This is
// the entire periodic cost of Zmail's bulk settlement.
func BenchmarkSnapshotRound(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("isps=%d", n), func(b *testing.B) {
			w, err := zmail.NewWorld(zmail.WorldConfig{
				NumISPs:        n,
				UsersPerISP:    1,
				FreezeDuration: time.Millisecond,
				Seed:           1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.SnapshotRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotRoundSealed is the crypto ablation: the same audit
// as BenchmarkSnapshotRound/isps=2 but with real RSA sealed boxes on
// the control plane. The delta is the entire crypto cost of one
// billing period — paid once per period, never per email.
func BenchmarkSnapshotRoundSealed(b *testing.B) {
	w, err := zmail.NewWorld(zmail.WorldConfig{
		NumISPs:        2,
		UsersPerISP:    1,
		FreezeDuration: time.Millisecond,
		RealCrypto:     true,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.SnapshotRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkVsPerMessage contrasts the settlement work for 1000
// emails: Zmail settles them with ONE audit round regardless of volume;
// SHRED settles each triggered payment individually (experiment E5).
func BenchmarkBulkVsPerMessage(b *testing.B) {
	b.Run("zmail/1000-emails-one-audit", func(b *testing.B) {
		w, err := zmail.NewWorld(zmail.WorldConfig{
			NumISPs: 2, UsersPerISP: 1,
			InitialBalance: 1 << 30, DefaultLimit: 1 << 40,
			MinAvail: 1, MaxAvail: 1 << 40, InitialAvail: 1 << 40,
			FreezeDuration: time.Millisecond, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		from := zmail.MustParseAddress("u0@isp0.example")
		to := zmail.MustParseAddress("u0@isp1.example")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 1000; k++ {
				msg := zmail.NewMessage(from, to, "m", "b")
				if _, err := w.Engine(0).SubmitSync(msg); err != nil {
					b.Fatal(err)
				}
			}
			w.Run()
			if err := w.SnapshotRound(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shred/1000-emails-per-msg-settle", func(b *testing.B) {
		s := zmail.NewShred()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 1000; k++ {
				s.Deliver("spammer.example", k%3 == 0)
			}
		}
	})
}

// ---- §2 baselines on the same hardware --------------------------------

func BenchmarkBayesClassify(b *testing.B) {
	bayes := zmail.NewBayes()
	gen := zmail.NewCorpusGenerator(1)
	for _, m := range gen.Batch(zmail.CorpusSpam, 200) {
		bayes.TrainSpam(m)
	}
	for _, m := range gen.Batch(zmail.CorpusHam, 200) {
		bayes.TrainHam(m)
	}
	test := gen.Batch(zmail.CorpusNewsletter, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bayes.Classify("x.example", test[i%len(test)])
	}
}

func BenchmarkBayesTrain(b *testing.B) {
	gen := zmail.NewCorpusGenerator(2)
	msgs := gen.Batch(zmail.CorpusSpam, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bayes := zmail.NewBayes()
		for _, m := range msgs {
			bayes.TrainSpam(m)
		}
	}
}

// BenchmarkHashcashMint quantifies the computational-postage baseline's
// per-message sender cost (at a reduced difficulty; scale by 2^(20-14)
// for the classic 20-bit stamp).
func BenchmarkHashcashMint(b *testing.B) {
	h := zmail.Hashcash{Bits: 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.MintStamp(fmt.Sprintf("user%d@x.example", i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashcashVerify(b *testing.B) {
	h := zmail.Hashcash{Bits: 14}
	stamp, err := h.MintStamp("user@x.example", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.VerifyStamp(stamp, "user@x.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- wire, mail, SMTP, simulator, spec --------------------------------

func BenchmarkWireEnvelopeRoundTrip(b *testing.B) {
	env := &zmail.WireEnvelope{Kind: 1, From: 3, Payload: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := env.MarshalBinary()
		var out zmail.WireEnvelope
		if err := out.UnmarshalBinary(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMailEncodeDecode(b *testing.B) {
	from := zmail.MustParseAddress("a@x.example")
	to := zmail.MustParseAddress("b@y.example")
	msg := zmail.NewMessage(from, to, "subject", "a modest body\nwith two lines")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zmail.DecodeMessage(msg.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMTPRoundTrip measures one full submission transaction
// (dial, EHLO, MAIL, RCPT, DATA, QUIT) against a live server on
// loopback TCP — Zmail's unmodified transport.
func BenchmarkSMTPRoundTrip(b *testing.B) {
	backend := &sinkBackend{}
	srv := &zmail.SMTPServer{Domain: "bench.example", Backend: backend}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	from := zmail.MustParseAddress("a@client.example")
	to := zmail.MustParseAddress("b@bench.example")
	msg := zmail.NewMessage(from, to, "bench", "body")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := zmail.SendMail(l.Addr().String(), "client.example", from,
			[]zmail.Address{to}, msg, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBody is n bytes of 76-column text, the shape of the federation
// benchmark's bodies (bench/gen.go).
func benchBody(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ 0123456789"
	var sb strings.Builder
	for col := 0; sb.Len() < n; col++ {
		if col == 76 {
			sb.WriteByte('\n')
			col = -1
			continue
		}
		sb.WriteByte(alphabet[(sb.Len()*7)%len(alphabet)])
	}
	return sb.String()
}

var benchBodySizes = []struct {
	name string
	n    int
}{{"100B", 100}, {"32KiB", 32 << 10}}

// BenchmarkSMTPTxn is one transaction on a persistent session, which
// pipelines because the server advertises PIPELINING, against a server
// whose Backend does nothing: what moving the bytes of
// one message costs both ends of the data path (client framing, two
// socket hops, server framing, Decode), with the ledger left out. The
// message is built inside the loop, as the federation benchmark's
// driver builds it.
func BenchmarkSMTPTxn(b *testing.B) {
	for _, size := range benchBodySizes {
		b.Run(size.name, func(b *testing.B) {
			srv := &zmail.SMTPServer{Domain: "bench.example", Backend: sinkBackend{}}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(l) }()
			defer srv.Close()
			cl, err := zmail.DialSMTP(l.Addr().String(), 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Hello("client.example"); err != nil {
				b.Fatal(err)
			}
			from := zmail.MustParseAddress("a@client.example")
			rcpts := []zmail.Address{zmail.MustParseAddress("b@bench.example")}
			body := benchBody(size.n)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Send(from, rcpts, zmail.NewMessage(from, rcpts[0], "bench", body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	benchEncoded string
	benchDecoded *zmail.Message
)

// BenchmarkMailCodec times Encode and Decode apart, on the wire form
// Encode produces (CRLF line ends, so Decode has CRs to strip).
func BenchmarkMailCodec(b *testing.B) {
	from := zmail.MustParseAddress("a@x.example")
	to := zmail.MustParseAddress("b@y.example")
	for _, size := range benchBodySizes {
		msg := zmail.NewMessage(from, to, "bench", benchBody(size.n))
		msg.SetClass(zmail.ClassNormal)
		b.Run("Encode/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEncoded = msg.Encode()
			}
		})
		raw := msg.Encode()
		b.Run("Decode/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := zmail.DecodeMessage(raw)
				if err != nil {
					b.Fatal(err)
				}
				benchDecoded = m
			}
		})
	}
}

type sinkBackend struct{}

func (sinkBackend) NewSession(string, net.Addr) (zmail.SMTPSession, error) {
	return sinkSession{}, nil
}

type sinkSession struct{}

func (sinkSession) Mail(zmail.Address) error                 { return nil }
func (sinkSession) Rcpt(zmail.Address) error                 { return nil }
func (sinkSession) Data(zmail.Address, *zmail.Message) error { return nil }
func (sinkSession) Reset()                                   {}

// BenchmarkNodeRelay is one cross-ISP message end to end through two
// real nodes on loopback: committed at the sender, relayed over core's
// outbound SMTP, received and credited at the peer, handed to the
// Mailbox. The window keeps 64 messages in flight, so the figure is the
// relay's sustained cost per delivered message, not one round trip's
// latency.
//
// Both node benchmarks assemble their daemons from core.NewNode, as the
// federation benchmark in bench/ does, so their rows stay comparable
// with the BENCH_<n>.json records.
func BenchmarkNodeRelay(b *testing.B) {
	domains := []string{"isp0.example", "isp1.example"}
	window := make(chan struct{}, 64)
	var nodes [2]*core.Node
	for i := range nodes {
		node, err := core.NewNode(core.NodeConfig{
			Engine: zmail.ISPConfig{
				Index: i, Domain: domains[i], Directory: zmail.NewDirectory(domains, nil),
				MinAvail: 1, MaxAvail: 1 << 42, InitialAvail: 1 << 41,
				BankSealer: zmail.NullSealer{}, OwnSealer: zmail.NullSealer{},
			},
			ListenAddr: "127.0.0.1:0",
			Mailbox:    func(string, *zmail.Message) { <-window },
			Logf:       func(format string, args ...any) { b.Errorf(format, args...) },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		if err := node.Engine().RegisterUser("u0", 0, 1<<40, 1<<40); err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
	}
	nodes[0].AddPeer(1, nodes[1].Addr().String())
	eng := nodes[0].Engine()
	from := zmail.MustParseAddress("u0@isp0.example")
	to := zmail.MustParseAddress("u0@isp1.example")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window <- struct{}{}
		if _, err := eng.SubmitSync(zmail.NewMessage(from, to, "bench", "body")); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cap(window); i++ { // full again once every delivery has drained it
		window <- struct{}{}
	}
}

// BenchmarkNodeListFanout is one §5 mailing-list post end to end
// through two real nodes on loopback: a 16-recipient list message
// submitted over SMTP at the distributor's node, relayed to the
// subscribers' node, credited and delivered there, and acked back, one
// ack per subscriber. An op ends when all 16 deliveries and all 16 acks
// have landed, so ns/op is one list transaction's round trip.
func BenchmarkNodeListFanout(b *testing.B) {
	const subscribers = 16
	domains := []string{"isp0.example", "isp1.example"}
	landed := make(chan struct{}, 2*subscribers)
	var nodes [2]*core.Node
	for i := range nodes {
		node, err := core.NewNode(core.NodeConfig{
			Engine: zmail.ISPConfig{
				Index: i, Domain: domains[i], Directory: zmail.NewDirectory(domains, nil),
				MinAvail: 1, MaxAvail: 1 << 42, InitialAvail: 1 << 41,
				BankSealer: zmail.NullSealer{}, OwnSealer: zmail.NullSealer{},
			},
			ListenAddr: "127.0.0.1:0",
			Mailbox:    func(string, *zmail.Message) { landed <- struct{}{} },
			AckSink:    func(string, *zmail.Message) { landed <- struct{}{} },
			Logf:       func(format string, args ...any) { b.Errorf(format, args...) },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
	}
	nodes[0].AddPeer(1, nodes[1].Addr().String())
	nodes[1].AddPeer(0, nodes[0].Addr().String())
	if err := nodes[0].Engine().RegisterUser("list", 0, 1<<40, 1<<40); err != nil {
		b.Fatal(err)
	}
	from := zmail.MustParseAddress("list@isp0.example")
	var rcpts []zmail.Address
	for i := 0; i < subscribers; i++ {
		name := fmt.Sprint("s", i)
		if err := nodes[1].Engine().RegisterUser(name, 0, 0, 0); err != nil {
			b.Fatal(err)
		}
		rcpts = append(rcpts, zmail.MustParseAddress(name+"@isp1.example"))
	}
	cl, err := zmail.DialSMTP(nodes[0].Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello("client.example"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := zmail.NewMessage(from, rcpts[0], "post", "body")
		msg.SetClass(zmail.ClassList)
		if err := cl.Send(from, rcpts, msg); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2*subscribers; j++ {
			<-landed
		}
	}
}

// BenchmarkWorldThroughput measures simulator capacity: messages pushed
// through the full engine+network+delivery pipeline per second.
func BenchmarkWorldThroughput(b *testing.B) {
	w := benchWorld(b, 4)
	rng := w.Rand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := w.UserAddr(rng.Intn(2), rng.Intn(4))
		to := w.UserAddr(rng.Intn(2), rng.Intn(4))
		if _, err := w.Send(from, to, "m", "b"); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			w.Run()
		}
	}
	w.Run()
}

// BenchmarkSpecStep measures the AP model checker's action rate with
// all invariants enabled.
func BenchmarkSpecStep(b *testing.B) {
	s := zmail.NewSpec(zmail.SpecConfig{NumISPs: 3, UsersPerISP: 3, Seed: 1})
	b.ResetTimer()
	steps := 0
	for steps < b.N {
		n, err := s.Run(4096)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("spec quiesced unexpectedly")
		}
		steps += n
	}
}

// BenchmarkMarketSupply measures the E10 sweep (200 spammers × 7
// prices).
func BenchmarkMarketSupply(b *testing.B) {
	m := zmail.MarketModel{Seed: 1}
	prices := []float64{0, 0.0001, 0.001, 0.005, 0.01, 0.05, 0.10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Supply(prices)
	}
}

// BenchmarkAdoptionRun measures the E8 trajectory computation.
func BenchmarkAdoptionRun(b *testing.B) {
	m := zmail.AdoptionModel{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Run(30)
	}
}
