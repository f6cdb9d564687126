// Command zbank runs one level of the Zmail bank tree; its flags pick
// the level. A bank keeps real-money accounts for the compliant ISPs it
// serves, sells and redeems e-penny pool inventory, and audits their
// credit arrays (§4.3–§4.4 of the paper). By default it serves every
// ISP, which makes it the central bank:
//
//	zkeygen -out bank
//	zbank -listen :7999 -isps 2 -key bank.key \
//	      -enroll 0=isp0.pub -enroll 1=isp1.pub \
//	      -funds 1000000 -audit-every 1h
//
// The §5 two-level hierarchy is one root plus one bank per region.
// -serve limits a bank to its region's ISPs (buy/sell and the
// intra-region audit), and -root names the root it forwards their
// credit reports to; the two come together. -assign, mapping every ISP
// to its region, makes the daemon that root: it joins the forwarded
// reports and verifies the cross-region pairs no regional bank sees:
//
//	zbank -listen :7900 -isps 4 -assign 0,0,1,1 -insecure
//	zbank -listen :7999 -isps 4 -serve 0,1 -root roothost:7900 -insecure
//	zbank -listen :7998 -isps 4 -serve 2,3 -root roothost:7900 -insecure
//
// -settle nets real money after each verified round and is refused on
// a root or a leaf: the root verifies cross-region credit, but no bank
// in the tree settles it yet, so only a central bank settles.
//
// For local experiments, -insecure replaces all sealed boxes with
// plaintext (the protocol logic, nonces and audits still run).
//
// A central or regional bank is core.StartBankDaemon behind flags: it
// enrolls its ISPs and, with -wal, replays its write-ahead log before
// the bank listener binds, so an order that arrives at once is applied
// to the recovered accounts. The root holds no ledger and runs on
// core.StartBankHandler.
//
// Pass -metrics 127.0.0.1:7071 to serve the admin listener: /metrics
// (Prometheus text), /healthz (503 once a WAL append has failed),
// /tracez, and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zmail/internal/bank"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
)

// enrollFlag collects repeated -enroll index=pubkeyfile flags.
type enrollFlag map[int]string

func (e enrollFlag) String() string { return fmt.Sprint(map[int]string(e)) }

func (e enrollFlag) Set(v string) error {
	idx, file, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want index=pubkeyfile, got %q", v)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return fmt.Errorf("bad index %q", idx)
	}
	e[i] = file
	return nil
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "zbank:", err)
		os.Exit(1)
	}
}

// usagef marks a flag-validation failure: the daemon exits non-zero
// before binding anything, and the error reads as a usage message.
func usagef(format string, a ...any) error {
	return fmt.Errorf("usage: "+format, a...)
}

// checkAddr rejects an address that cannot even be split into host and
// port before any boot work happens; bind failures stay bind failures.
func checkAddr(flagName, addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return usagef("bad %s address %q: %v", flagName, addr, err)
	}
	return nil
}

// parseIndexCSV parses a comma-separated index list, each in [0, n).
func parseIndexCSV(flagName, csv string, n int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || i < 0 || i >= n {
			return nil, usagef("bad %s entry %q (want indexes in [0,%d))", flagName, tok, n)
		}
		out = append(out, i)
	}
	return out, nil
}

// run boots the bank the flags describe and serves until stop fires.
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("zbank", flag.ContinueOnError)
	enrollments := enrollFlag{}
	var (
		listen     = fs.String("listen", ":7999", "TCP listen address")
		isps       = fs.Int("isps", 0, "federation size (required)")
		serveCSV   = fs.String("serve", "", "comma-separated ISP indexes this bank serves (default: all); requires -root")
		rootAddr   = fs.String("root", "", "root address this bank forwards its ISPs' credit reports to; requires -serve")
		assignCSV  = fs.String("assign", "", "run as the root: comma-separated region per ISP index, e.g. 0,0,1,1")
		keyFile    = fs.String("key", "", "bank private key file (from zkeygen)")
		funds      = fs.Int64("funds", 1_000_000, "initial real-penny account per compliant ISP")
		auditEvery = fs.Duration("audit-every", 0, "run credit audits on this interval (0 = manual only)")
		insecure   = fs.Bool("insecure", false, "use plaintext sealers (local experiments only)")
		settle     = fs.Bool("settle", false, "net real money between ISP accounts after each verified audit round (central bank only)")
		walDir     = fs.String("wal", "", "write-ahead-log directory; every mutation is logged, boot replays the log, checkpoints every 5m and on shutdown")
		metricsAd  = fs.String("metrics", "", "admin telemetry listen address (loopback only!), e.g. 127.0.0.1:7071")
	)
	fs.Var(enrollments, "enroll", "index=pubkeyfile; repeatable, one per compliant ISP")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-level rejections happen before any listener binds: a
	// misconfigured daemon dies with a usage message, not a half-boot.
	if *isps <= 0 {
		return usagef("-isps is required")
	}
	for _, a := range []struct{ name, addr string }{
		{"-listen", *listen}, {"-root", *rootAddr}, {"-metrics", *metricsAd},
	} {
		if err := checkAddr(a.name, a.addr); err != nil {
			return err
		}
	}
	role := "central"
	var serve []int
	switch {
	case *assignCSV != "":
		role = "root"
		if *serveCSV != "" || *rootAddr != "" {
			return usagef("-serve/-root do not apply to the root (-assign), which serves no ISPs and forwards nowhere")
		}
		if *walDir != "" || *auditEvery != 0 || *settle {
			return usagef("-wal/-audit-every/-settle do not apply to the root (-assign): it holds no ledger or accounts and audits when the leaves report")
		}
	case (*serveCSV == "") != (*rootAddr == ""):
		return usagef("-serve and -root must come together")
	case *serveCSV != "":
		role = "leaf"
		if *settle {
			return usagef("-settle does not apply to a leaf (-serve/-root): the root verifies cross-region credit but no bank settles it yet, so only a central bank settles")
		}
		var err error
		if serve, err = parseIndexCSV("-serve", *serveCSV, *isps); err != nil {
			return err
		}
	}

	var ownSealer crypto.Sealer
	switch {
	case *insecure:
		ownSealer = crypto.Null{}
	case *keyFile != "":
		data, err := os.ReadFile(*keyFile)
		if err != nil {
			return err
		}
		box, err := crypto.LoadPrivatePEM(data)
		if err != nil {
			return err
		}
		ownSealer = box
	default:
		return usagef("provide -key or -insecure")
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "zbank[%s]: "+format+"\n", append([]any{role}, a...)...)
	}
	if role == "root" {
		return runRoot(*listen, *isps, *assignCSV, *metricsAd, ownSealer, logf, stop)
	}

	// A leaf serves only its region: the other indexes stay
	// non-compliant in its view, so it refuses their buys and audits
	// only the pairs it can see both sides of.
	var compliantMask []bool
	if serve != nil {
		compliantMask = make([]bool, *isps)
		for _, i := range serve {
			compliantMask[i] = true
		}
	}
	enroll := make(map[int]crypto.Sealer)
	for idx, file := range enrollments {
		if *insecure {
			enroll[idx] = crypto.Null{}
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return fmt.Errorf("enroll isp[%d]: %w", idx, err)
		}
		box, err := crypto.LoadPublicPEM(data)
		if err != nil {
			return fmt.Errorf("enroll isp[%d]: %w", idx, err)
		}
		enroll[idx] = box
	}
	// -insecure enrolls every served ISP with a plaintext sealer (all of
	// them for a central bank, the region for a leaf).
	for i := range *isps {
		if *insecure && (compliantMask == nil || compliantMask[i]) {
			enroll[i] = crypto.Null{}
		}
	}

	d, err := core.StartBankDaemon(core.BankDaemonConfig{
		Bank: bank.Config{
			NumISPs:        *isps,
			Compliant:      compliantMask,
			InitialAccount: money.Penny(*funds),
			OwnSealer:      ownSealer,
			SettleOnVerify: *settle,
		},
		ListenAddr:  *listen,
		WALDir:      *walDir,
		Enroll:      enroll,
		RootAddr:    *rootAddr,
		MetricsAddr: *metricsAd,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := d.Close(); err != nil {
			logf("shutdown: %v", err)
		}
	}()
	bk := d.Bank()
	if *rootAddr != "" {
		logf("forwarding credit reports to root at %s", *rootAddr)
	}
	if a := d.MetricsAddr(); a != nil {
		logf("metrics on http://%s/metrics", a)
	}
	logf("listening on %s for %d ISPs (funds %v each)", d.Addr(), *isps, money.Penny(*funds))

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *auditEvery > 0 {
		ticker = time.NewTicker(*auditEvery)
		defer ticker.Stop()
		tick = ticker.C
		logf("auditing every %v", *auditEvery)
	}

	known := 0
	for {
		select {
		case <-tick:
			if err := bk.StartSnapshot(); err != nil {
				logf("audit: %v", err)
				continue
			}
			// Poll briefly for completion, then report. A round
			// stalled on a down ISP must not hold up shutdown.
			if !awaitRound(bk, stop) {
				logf("shutting down")
				return nil
			}
			st := bk.Stats()
			logf("audit round %d complete; %d total violations; %d e-pennies outstanding",
				st.Rounds, st.ViolationsAll, bk.Outstanding())
			for _, v := range bk.Violations()[known:] {
				logf("VIOLATION: %v", v)
			}
			known = len(bk.Violations())
		case <-stop:
			logf("shutting down")
			return nil
		}
	}
}

// awaitRound polls for up to a minute for the bank's audit round to
// complete. It returns false if stop fires first.
func awaitRound(bk *bank.Bank, stop <-chan os.Signal) bool {
	poll := time.NewTicker(100 * time.Millisecond)
	defer poll.Stop()
	deadline := time.After(time.Minute)
	for !bk.RoundComplete() {
		select {
		case <-poll.C:
		case <-deadline:
			return true
		case <-stop:
			return false
		}
	}
	return true
}

// runRoot serves the top of the two-level hierarchy: a passive
// aggregator that accepts credit reports forwarded by the leaves,
// joins them by round, and verifies the cross-region pairs. It holds
// no accounts and mints nothing, so there is no ledger to persist.
func runRoot(listen string, isps int, assignCSV, metricsAd string, ownSealer crypto.Sealer, logf func(string, ...any), stop <-chan os.Signal) error {
	assign, err := parseIndexCSV("-assign", assignCSV, isps)
	if err != nil {
		return err
	}
	if len(assign) != isps {
		return usagef("-assign has %d entries for %d ISPs", len(assign), isps)
	}
	root, err := bank.NewRoot(bank.RootConfig{
		NumISPs:   isps,
		Assign:    assign,
		OwnSealer: ownSealer,
	})
	if err != nil {
		return err
	}
	srv, err := core.StartBankHandler(root, listen, logf)
	if err != nil {
		return err
	}
	defer srv.Close()

	reg := metrics.NewRegistry()
	reg.Register(root)
	admin, err := obsv.Start(metricsAd, obsv.Config{Registry: reg})
	if err != nil {
		return err
	}
	defer func() {
		if err := admin.Close(); err != nil {
			logf("metrics server close: %v", err)
		}
	}()
	if a := admin.Addr(); a != nil {
		logf("metrics on http://%s/metrics", a)
	}
	logf("root listening on %s for %d ISPs (regions %v)", srv.Addr(), isps, assign)

	report := time.NewTicker(time.Minute)
	defer report.Stop()
	known := 0
	for {
		select {
		case <-report.C:
			st := root.Stats()
			logf("%d reports, %d rounds verified, %d cross pairs, %d violations",
				st.Reports, st.Rounds, st.CrossPairs, st.ViolationsAll)
			for _, v := range root.Violations()[known:] {
				logf("VIOLATION: %v", v)
			}
			known = len(root.Violations())
		case <-stop:
			st := root.Stats()
			logf("shutting down (%d rounds verified, %d violations)", st.Rounds, st.ViolationsAll)
			return nil
		}
	}
}
