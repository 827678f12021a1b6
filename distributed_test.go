package squall_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	squall "repro"
)

// workerBin builds cmd/joinworker once per test binary and returns its
// path. Go's build cache makes repeat calls cheap, but one binary per
// run keeps the e2e tests from racing the linker.
var workerBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "joinworker-bin")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "joinworker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/joinworker")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build joinworker: %v\n%s", err, out)
	}
	return bin, nil
})

// worker is one spawned joinworker process.
type worker struct {
	cmd    *exec.Cmd
	addr   string
	stdout bytes.Buffer
	stderr bytes.Buffer
	waited chan error
}

// startWorker launches a joinworker on a free port and parses the
// bound address off its stdout announcement.
func startWorker(t *testing.T) *worker {
	t.Helper()
	bin, err := workerBin()
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{waited: make(chan error, 1)}
	w.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-spilldir", t.TempDir())
	pipe, err := w.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	w.cmd.Stderr = &w.stderr
	if err := w.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = w.cmd.Process.Kill()
		<-w.waited
	})

	lines := bufio.NewScanner(pipe)
	addrCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			w.stdout.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "joinworker: listening "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		w.waited <- w.cmd.Wait()
		close(w.waited)
	}()
	select {
	case w.addr = <-addrCh:
	case err := <-w.waited:
		t.Fatalf("joinworker exited before announcing: %v\nstderr: %s", err, w.stderr.String())
	case <-time.After(20 * time.Second):
		t.Fatal("joinworker never announced its address")
	}
	return w
}

// wait blocks for process exit with a deadline.
func (w *worker) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-w.waited:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("joinworker did not exit; stderr: %s", w.stderr.String())
		return nil
	}
}

// TestDistributedExactness is the distributed acceptance drill: a
// coordinator with J=8 joiners placed on two real joinworker
// processes, an adaptive run over a lopsided stream that forces
// mid-stream state migration across TCP links, and a pair-for-pair
// multiset comparison against the nested-loop oracle. Remote
// execution, envelope framing, block-shipped migration, and the
// coordinator's per-joiner shadow sinks (which deliver the pairs a
// worker returns) must all be invisible in the result, at the default
// envelope size, at 1024 (past a block: a worker's joiners copy such
// frame bodies) and at 1 (one-row windows of a worker's shared blocks).
// The band case (width 2) runs the same drill over ordered state: the
// workers' band stores select and adopt migrated tuples one by one
// (BlockEncoder.SelectFunc) and ship them as blocks over the links.
// The reshuffler
// count a worker takes from the hello is pinned in internal/core
// (TestWorkerTakesReshufflersFromHello).
func TestDistributedExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	tuples := emitStream(300, 6000, 40, 7)
	equi := emitOracle(tuples)
	for _, tc := range []struct {
		name string
		pred squall.Predicate
		want map[[2]int64]int
		opts []squall.Option
	}{
		{"default", squall.EquiJoin("dist", nil), equi, nil},
		{"batch-1024", squall.EquiJoin("dist", nil), equi, []squall.Option{squall.WithBatchSize(1024)}},
		{"batch-1", squall.EquiJoin("dist", nil), equi, []squall.Option{squall.WithBatchSize(1)}},
		{"band", squall.BandJoin("dist", 2, nil), bandOracle(tuples, 2), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			distributedExact(t, tc.pred, tuples, tc.want, tc.opts)
		})
	}
}

// bandOracle is emitOracle for a band predicate: every R and S tuple
// whose keys lie within width of each other.
func bandOracle(tuples []squall.Tuple, width int64) map[[2]int64]int {
	want := map[[2]int64]int{}
	for i := range tuples {
		if tuples[i].Rel != squall.SideR {
			continue
		}
		for j := range tuples {
			if d := tuples[i].Key - tuples[j].Key; tuples[j].Rel == squall.SideS && d >= -width && d <= width {
				want[[2]int64{tuples[i].Aux, tuples[j].Aux}]++
			}
		}
	}
	return want
}

// distributedExact is one TestDistributedExactness run: the adaptive
// J=8 engine for pred on two spawned workers, with opts added.
func distributedExact(t *testing.T, pred squall.Predicate, tuples []squall.Tuple, want map[[2]int64]int, opts []squall.Option) {
	w1, w2 := startWorker(t), startWorker(t)

	var mu sync.Mutex
	got := map[[2]int64]int{}
	eng := squall.NewEngine(pred, squall.Each(func(p squall.Pair) {
		mu.Lock()
		got[[2]int64{p.R.Aux, p.S.Aux}]++
		mu.Unlock()
	}), append([]squall.Option{
		squall.WithJoiners(8),
		squall.WithSeed(99),
		squall.WithAdaptive(),
		squall.WithWarmup(400),
		squall.WithWorkers(w1.addr, w2.addr),
	}, opts...)...)
	eng.Start()
	done := make(chan error, 1)
	go func() {
		for i := range tuples {
			if err := eng.Send(tuples[i]); err != nil {
				done <- err
				return
			}
		}
		done <- eng.Finish()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("distributed run: %v\nworker1 stderr: %s\nworker2 stderr: %s",
				err, w1.stderr.String(), w2.stderr.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("distributed run hung\nworker1 stderr: %s\nworker2 stderr: %s",
			w1.stderr.String(), w2.stderr.String())
	}

	if migs := eng.Metrics().Migrations.Load(); migs == 0 {
		t.Fatal("adaptive distributed run performed no migrations; the drill must cover remote state relocation")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct pairs, oracle %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("pair %v: got %d, oracle %d", k, got[k], n)
		}
	}

	// Both workers must exit cleanly after a clean stream.
	for i, w := range []*worker{w1, w2} {
		if err := w.wait(t); err != nil {
			t.Fatalf("worker %d exit: %v\nstderr: %s", i+1, err, w.stderr.String())
		}
		if !strings.Contains(w.stdout.String(), "session complete") {
			t.Fatalf("worker %d did not report a complete session:\n%s", i+1, w.stdout.String())
		}
	}
}

// TestDistributedWorkerCrash kills one worker process mid-stream and
// requires the coordinator to surface a typed *LinkError from the
// driving loop instead of deadlocking — the acceptance criterion for
// the data plane's failure path.
func TestDistributedWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	w1, w2 := startWorker(t), startWorker(t)

	tuples := emitStream(300, 20000, 40, 11)
	eng := squall.NewEngine(squall.EquiJoin("crash", nil),
		squall.Each(func(squall.Pair) {}),
		squall.WithJoiners(8),
		squall.WithSeed(3),
		squall.WithAdaptive(),
		squall.WithWarmup(400), // migrations begin while the stream is still running
		squall.WithWorkers(w1.addr, w2.addr),
	)
	eng.Start()
	done := make(chan error, 1)
	go func() {
		var sendErr error
		for i := range tuples {
			if i == len(tuples)/3 {
				// The stream is past warmup: the adaptive controller is
				// migrating (or about to). Kill a worker under it.
				if err := w2.cmd.Process.Kill(); err != nil {
					done <- fmt.Errorf("kill worker: %v", err)
					return
				}
			}
			if sendErr = eng.Send(tuples[i]); sendErr != nil {
				break
			}
		}
		err := eng.Finish()
		if err == nil {
			err = sendErr
		}
		done <- err
	}()

	select {
	case err := <-done:
		var le *squall.LinkError
		if !errors.As(err, &le) {
			t.Fatalf("got %v (%T), want a *squall.LinkError", err, err)
		}
		if le.Worker != w2.addr && le.Worker != w1.addr {
			t.Fatalf("LinkError names worker %q, spawned %q and %q", le.Worker, w1.addr, w2.addr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator deadlocked after worker crash")
	}
}
