package netnode

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
)

// ChildMain is the hidden node-process entry point. Call it first thing in
// main() (before flag parsing) and in TestMain: when the APSIM_NETNODE_*
// environment is present the process is a re-exec'd node — ChildMain runs
// the node loop and never returns. In a normal invocation it is a no-op.
func ChildMain() {
	id, procs, seed, network, addr, eval, ok, err := childEnv()
	if !ok {
		return
	}
	if err == nil {
		err = runChild(id, procs, seed, network, addr, eval)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "apsim node %d: %v\n", id, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// heartbeatEvery is the child's liveness-probe cadence. Death detection is
// the broken connection (SIGKILL closes the socket immediately); heartbeats
// are the slow-path safety net for a wedged-but-connected child and keep the
// supervisor's per-node last-seen stamps honest.
const heartbeatEvery = 100 * time.Millisecond

// childNode is the per-process node: internal/node's rollback protocol fed
// one frame at a time (§4.2's "LOOP CASE received packet OF ..."), with the
// socket as its transport. Only the heartbeat ticker shares the connection,
// serialized by wmu.
type childNode struct {
	core *node.Node
	id   proto.ProcID
	conn net.Conn
	wmu  sync.Mutex
	eval lang.Evaluator
	// evals holds each program compiled by eval, built at FrameProgram
	// receipt so the per-task path never compiles.
	evals map[uint16]lang.EvalProgram
}

func runChild(id, procs int, seed int64, network, addr, eval string) error {
	conn, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return err
	}
	ev, err := lang.EvaluatorByName(eval)
	if err != nil {
		return err // unreachable: childEnv validated the name
	}
	n := &childNode{id: proto.ProcID(id), conn: conn, eval: ev, evals: map[uint16]lang.EvalProgram{}}
	n.core = node.New(id, procs, seed, n, nil)
	if err := n.write(&proto.Frame{
		Type: proto.FrameHello, From: n.id, To: proto.HostID,
		Payload: helloPayload(id, os.Getpid()),
	}); err != nil {
		return err
	}
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go n.heartbeat(stopBeat)
	for {
		f, err := proto.ReadFrame(conn)
		if err != nil {
			// The parent is gone (EOF/reset) — the orphan watchdog every
			// OS gets. Exit silently on a clean break, loudly on garbage.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return err
		}
		if err := n.handle(f); err != nil {
			return err
		}
		if f.Type == proto.FrameShutdown {
			return nil
		}
	}
}

// write sends one frame; wmu serializes the main loop and the heartbeat.
func (n *childNode) write(f *proto.Frame) error {
	n.wmu.Lock()
	defer n.wmu.Unlock()
	_, err := proto.WriteFrame(n.conn, f)
	return err
}

func (n *childNode) heartbeat(stop <-chan struct{}) {
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n.write(&proto.Frame{Type: proto.FrameHeartbeat, From: n.id, To: proto.HostID}) != nil {
				return // parent gone; the reader will exit the process
			}
		case <-stop:
			return
		}
	}
}

// Spawn implements node.Transport. Reissue frames carry FlagReissue so the
// supervisor can count recovery traffic without decoding payloads.
func (n *childNode) Spawn(dest proto.ProcID, pkt *node.Packet, reissue bool) error {
	var flags byte
	if reissue {
		flags = proto.FlagReissue
	}
	return n.write(&proto.Frame{
		Type: proto.FrameSpawn, Flags: flags, From: n.id, To: dest,
		Payload: spawnPayload(pkt.TaskPacket),
	})
}

// Result implements node.Transport; roots answer to the supervisor.
func (n *childNode) Result(to proto.ProcID, r *proto.Result) error {
	return n.write(&proto.Frame{
		Type: proto.FrameResult, From: n.id, To: to,
		Payload: proto.EncodeResult(r),
	})
}

func (n *childNode) handle(f *proto.Frame) error {
	switch f.Type {
	case proto.FrameProgram:
		idx, src, err := parseProgram(f.Payload)
		if err != nil {
			return err
		}
		prog, err := lang.Parse(src)
		if err != nil {
			return fmt.Errorf("netnode: program %d does not parse: %v", idx, err)
		}
		ep, err := n.eval.Compile(prog)
		if err != nil {
			return fmt.Errorf("netnode: program %d does not compile: %v", idx, err)
		}
		n.evals[idx] = ep
	case proto.FrameSpawn:
		pkt, err := parseSpawn(f.Payload)
		if err != nil {
			return err
		}
		code := n.evals[uint16(pkt.Prog)]
		if code == nil {
			return fmt.Errorf("netnode: node %d has no program %d", n.id, pkt.Prog)
		}
		return n.core.Spawn(&node.Packet{TaskPacket: pkt, Code: code})
	case proto.FrameResult:
		res, err := proto.DecodeResult(f.Payload)
		if err != nil {
			return err
		}
		return n.core.Result(res)
	case proto.FrameNodeDown:
		dead, err := parseNodeDown(f.Payload)
		if err != nil {
			return err
		}
		return n.core.NodeDown(dead)
	case proto.FrameShutdown:
		return n.write(&proto.Frame{
			Type: proto.FrameStats, From: n.id, To: proto.HostID,
			Payload: statsPayload(n.core.Drained.Load(), n.core.Reissues.Load()),
		})
	default:
		return fmt.Errorf("netnode: unexpected %v frame at node %d", f.Type, n.id)
	}
	return nil
}
