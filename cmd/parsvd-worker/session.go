package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"goparsvd/internal/apmos"
	"goparsvd/internal/core"
	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/rla"
)

// runSession runs this process as one rank of a persistent world,
// reading framed commands from stdin and answering on stdout (see
// internal/launch/proto.go). Snapshot data arrives over the wire — the
// launcher scatters row blocks — and the rank's core engine incorporates
// it through the collective update pipeline.
//
// Every command is answered by exactly one reply frame. Any failure —
// a malformed frame, an engine panic, an abort echo from a dying peer —
// is terminal: the transport is aborted (so live peers unwind), an ERR
// frame is emitted best-effort, and the process exits nonzero. There is
// no partial recovery; a session world is either fully consistent or
// dead, which is exactly the contract the launcher enforces fleet-wide.
func runSession(rank, np int, listenAddr string, opts tcptransport.Options) error {
	out := bufio.NewWriter(os.Stdout)
	reply := func(verb byte, body []byte) error {
		if err := launch.WriteSessionFrame(out, verb, body); err != nil {
			return err
		}
		return out.Flush()
	}

	// Rank 0 binds the rendezvous listener first so the (possibly
	// ephemeral) address reaches the launcher before tcptransport.New
	// blocks waiting for the other ranks to dial in.
	if rank == 0 && np > 1 {
		l, err := net.Listen("tcp", listenAddr)
		if err != nil {
			reply(launch.SessErr, []byte(fmt.Sprintf("rendezvous listen: %v", err)))
			return err
		}
		opts.Listener = l
		if err := reply(launch.SessRendezvous, []byte(l.Addr().String())); err != nil {
			return err
		}
	}
	t, err := tcptransport.New(opts)
	if err != nil {
		reply(launch.SessErr, []byte(fmt.Sprintf("establishing transport: %v", err)))
		return err
	}
	log.Printf("session up: %d ranks", np)
	comm := mpi.NewComm(t, rank)

	var (
		copts     core.Options
		eng       *core.Parallel // nil until INIT
		localRows int            // 0 until the first PUSH
	)
	status := func(sha string) ([]byte, error) {
		st := t.Stats()
		s := launch.SessionStatus{
			Rank:      rank,
			Messages:  st.Messages,
			BytesSent: st.Bytes,
			Rows:      localRows,
			ModesSHA:  sha,
		}
		if rank < len(st.RecvBytes) {
			s.BytesRecv = st.RecvBytes[rank]
		}
		if eng != nil {
			s.Snapshots = eng.SnapshotsSeen()
			s.Iterations = eng.Iterations()
		}
		return json.Marshal(s)
	}
	okStatus := func(sha string) error {
		b, err := status(sha)
		if err != nil {
			return err
		}
		return reply(launch.SessOK, b)
	}

	// handle executes one command, converting engine panics (dimension
	// bugs, abort echoes from failed peers) into errors. done reports a
	// clean SHUTDOWN.
	handle := func(verb byte, body []byte) (done bool, err error) {
		defer func() {
			if v := recover(); v != nil {
				done = false
				if e, ok := v.(error); ok {
					err = e
				} else {
					err = fmt.Errorf("%v", v)
				}
			}
		}()
		switch verb {
		case launch.SessInit:
			var spec launch.EngineSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				return false, fmt.Errorf("malformed INIT spec: %w", err)
			}
			copts = core.Options{
				K:            spec.K,
				ForgetFactor: spec.FF,
				R1:           spec.R1,
				Method:       apmos.Method(spec.Method),
				LowRank:      spec.LowRank,
				RLA: rla.Options{
					Oversample: spec.Oversample,
					PowerIters: spec.PowerIters,
					Seed:       spec.Seed,
				},
			}
			if err := copts.Validate(); err != nil {
				return false, fmt.Errorf("INIT spec: %w", err)
			}
			eng = core.NewParallel(comm, copts)
			return false, okStatus("")
		case launch.SessPush, launch.SessPushSketch:
			if eng == nil {
				return false, errors.New("PUSH before INIT")
			}
			// A sketch carries this rank's row block of Q plus all of S;
			// the engine applies the pair directly.
			var x, s *mat.Dense
			var err error
			if verb == launch.SessPush {
				x, err = launch.DecodeBlock(body)
			} else {
				x, s, err = launch.DecodeFactorPair(body)
			}
			if err != nil {
				return false, err
			}
			eng.Push(x, s)
			localRows = x.Rows()
			return false, okStatus("")
		case launch.SessSpectrum:
			if localRows == 0 {
				return false, errors.New("SPECTRUM before any PUSH")
			}
			return false, reply(launch.SessFloats, launch.EncodeFloats(eng.SingularValues()))
		case launch.SessModesSHA:
			if localRows == 0 {
				return false, errors.New("MODES-SHA before any PUSH")
			}
			modes := eng.GatherModes() // collective: every rank participates
			sha := ""
			if rank == 0 {
				sha = launch.HashModes(modes)
			}
			return false, okStatus(sha)
		case launch.SessStats:
			return false, okStatus("")
		case launch.SessSave:
			if localRows == 0 {
				return false, errors.New("SAVE before any PUSH")
			}
			modes := eng.GatherModes() // collective
			if rank != 0 {
				return false, okStatus("")
			}
			singular := append([]float64(nil), eng.SingularValues()...)
			ser, err := core.RestoreSerial(copts, modes, singular, eng.Iterations(), eng.SnapshotsSeen())
			if err != nil {
				return false, fmt.Errorf("assembling checkpoint state: %w", err)
			}
			var buf bytes.Buffer
			if err := ser.Save(&buf); err != nil {
				return false, fmt.Errorf("writing checkpoint: %w", err)
			}
			return false, reply(launch.SessBlob, buf.Bytes())
		case launch.SessShutdown:
			// No rank starts tearing its sockets down while a peer is
			// still mid-collective.
			comm.Barrier()
			t.Close()
			return true, okStatus("")
		default:
			return false, fmt.Errorf("unknown session verb 0x%02x", verb)
		}
	}

	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	for {
		verb, body, err := launch.ReadSessionFrame(in)
		if err != nil {
			// The launcher is gone (EOF) or sent garbage: unwind the whole
			// world so peers blocked in collectives do not hang until the
			// idle timeout.
			t.Abort()
			if err == io.EOF {
				return errors.New("launcher closed the session stream")
			}
			return err
		}
		done, err := handle(verb, body)
		if err != nil {
			t.Abort()
			reply(launch.SessErr, []byte(err.Error()))
			return err
		}
		if done {
			return nil
		}
	}
}
