package netnode

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lang"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/registry"
	"repro/internal/wall"
)

// sendq is an unbounded FIFO of outbound frames for one child. The router
// goroutines enqueue without ever blocking: if writes to children were
// synchronous, two mutually-full socket buffers would deadlock the whole
// mesh (parent blocked writing to a child that is itself blocked writing to
// the parent). Unbounded is safe here — the queue is bounded in practice by
// the task tree in flight, and a dead child's queue is dropped wholesale.
type sendq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*proto.Frame
	closed bool
}

func newSendq() *sendq {
	s := &sendq{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push enqueues a frame; false means the queue is closed (child dead).
func (s *sendq) push(f *proto.Frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.q = append(s.q, f)
	s.cond.Signal()
	return true
}

// pop blocks for the next frame; false means closed and drained.
func (s *sendq) pop() (*proto.Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.q) == 0 {
		return nil, false
	}
	f := s.q[0]
	s.q = s.q[1:]
	return f, true
}

func (s *sendq) close() {
	s.mu.Lock()
	s.closed = true
	s.q = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}

// child is the supervisor's handle on one node process.
type child struct {
	id    int
	pid   int
	cmd   *managedProc
	conn  net.Conn
	alive atomic.Bool
	out   *sendq // outbound frames, drained by a dedicated writer goroutine

	// lastBeat is the wall stamp (UnixNano) of the last frame seen from the
	// child — heartbeat bookkeeping; death detection itself is the broken
	// connection.
	lastBeat atomic.Int64
	// reissues is the per-node recovery-load statistic, counted by the
	// router from FlagReissue spawn frames (attribution survives a later
	// SIGKILL of the node, unlike child-local counters).
	reissues atomic.Int64
}

// Cluster is a process-per-node machine: N child processes dialed into the
// parent's socket, the parent routing frames between them and acting as the
// super-root.
//
// The Host's stream counters count protocol frames (spawn, result,
// node-down) the router carried, in real frame wire sizes — program
// broadcasts and supervision traffic (hello, heartbeat, stats, shutdown)
// are not interconnect load, matching the resident-code model of the other
// backends. Spawned counts non-reissue spawn frames; Reissued the
// FlagReissue ones. Drained counts frames black-holed at dead nodes plus
// the child-local drains the stats frames report at graceful shutdown (a
// SIGKILLed node's local drains die with it — honest accounting: nothing a
// dead processor counted can be read back).
type Cluster struct {
	*wall.Host
	n       int
	seed    int64
	recov   bool
	eval    string
	network string
	addr    string
	dir     string // unix-socket temp dir ("" for tcp)
	ln      net.Listener

	children []*child

	// progMu guards the program table; programs ship once, by index.
	progMu  sync.Mutex
	progs   []*lang.Program
	progIdx map[*lang.Program]int

	closing atomic.Bool
	wg      sync.WaitGroup
}

// Options configure New beyond the required arguments.
type Options struct {
	// TCP switches the interconnect from a unix socket in a temp directory
	// to a loopback TCP listener.
	TCP bool
	// NoRecovery selects the "none" scheme: deaths are not announced and
	// roots are not reissued, so lost work stays lost.
	NoRecovery bool
	// Eval names the evaluator the node processes run reduction passes
	// with ("" = lang.DefaultEvaluator); it travels to children in the
	// environment contract.
	Eval string
}

// New brings up a cluster of n node processes. Every child must complete
// the dial-and-hello handshake before New returns; a child that fails to
// appear within the setup timeout fails the whole Open, with the already-
// started processes reaped.
func New(n int, seed int64, opts Options) (*Cluster, error) {
	if n < 2 {
		return nil, errors.New("netnode: need at least 2 nodes")
	}
	eval := opts.Eval
	if eval == "" {
		eval = lang.DefaultEvaluator
	}
	if !lang.KnownEvaluator(eval) {
		return nil, registry.Unknown("netnode", "evaluator", eval, lang.Evaluators())
	}
	c := &Cluster{
		n:       n,
		seed:    seed,
		recov:   !opts.NoRecovery,
		eval:    eval,
		progIdx: map[*lang.Program]int{},
	}
	c.Host = wall.NewHost("netnode", n, c)
	if opts.TCP {
		c.network = "tcp"
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.ln, c.addr = ln, ln.Addr().String()
	} else {
		dir, err := os.MkdirTemp("", SocketPattern)
		if err != nil {
			return nil, err
		}
		c.network, c.dir, c.addr = "unix", dir, dir+"/hub.sock"
		ln, err := net.Listen("unix", c.addr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		c.ln = ln
	}
	if err := c.startChildren(); err != nil {
		c.teardown()
		return nil, err
	}
	for _, ch := range c.children {
		c.wg.Add(2)
		go c.route(ch)
		go c.writer(ch)
	}
	return c, nil
}

// writer drains one child's outbox onto its socket. Write errors are the
// same failure signal as read errors: the child is gone.
func (c *Cluster) writer(ch *child) {
	defer c.wg.Done()
	for {
		f, ok := ch.out.pop()
		if !ok {
			return
		}
		if _, err := proto.WriteFrame(ch.conn, f); err != nil {
			if !c.closing.Load() {
				c.nodeDied(ch)
			}
			return
		}
	}
}

// startChildren spawns the n processes and completes the hello handshake.
func (c *Cluster) startChildren() error {
	byID := make([]*child, c.n)
	for i := 0; i < c.n; i++ {
		proc, err := startNodeProc(i, c.n, c.seed, c.network, c.addr, c.eval)
		if err != nil {
			return fmt.Errorf("netnode: start node %d: %w", i, err)
		}
		byID[i] = &child{id: i, cmd: proc, out: newSendq()}
	}
	deadline := time.Now().Add(15 * time.Second)
	for connected := 0; connected < c.n; connected++ {
		if d, ok := c.ln.(interface{ SetDeadline(time.Time) error }); ok {
			_ = d.SetDeadline(deadline)
		}
		conn, err := c.ln.Accept()
		if err != nil {
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: waiting for node handshakes (%d/%d): %w", connected, c.n, err)
		}
		_ = conn.SetReadDeadline(deadline)
		f, err := proto.ReadFrame(conn)
		if err != nil || f.Type != proto.FrameHello {
			conn.Close()
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: bad handshake: %v (frame %v)", err, f)
		}
		id, pid, err := parseHello(f.Payload)
		if err != nil || id < 0 || id >= c.n || byID[id].conn != nil {
			conn.Close()
			c.children = compactChildren(byID)
			return fmt.Errorf("netnode: bad hello (id %d): %v", id, err)
		}
		_ = conn.SetReadDeadline(time.Time{})
		byID[id].conn = conn
		byID[id].pid = pid
		byID[id].alive.Store(true)
		byID[id].lastBeat.Store(time.Now().UnixNano())
	}
	c.children = byID
	return nil
}

// compactChildren keeps the partially-started set reapable on a failed New.
func compactChildren(byID []*child) []*child {
	out := byID[:0:0]
	for _, ch := range byID {
		if ch != nil {
			out = append(out, ch)
		}
	}
	return out
}

// Pids lists the node process ids, for tests asserting no orphans survive.
func (c *Cluster) Pids() []int {
	out := make([]int, len(c.children))
	for i, ch := range c.children {
		out[i] = ch.cmd.Pid()
	}
	return out
}

// Load implements wall.Links: assign the program an index and broadcast
// its source to every live node, once. Children that die later simply lose
// the code with everything else. The hub never evaluates, so it compiles
// nothing.
func (c *Cluster) Load(prog *lang.Program) (int, lang.EvalProgram, error) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	if idx, ok := c.progIdx[prog]; ok {
		return idx, nil, nil
	}
	if len(c.progs) > 0xffff {
		return 0, nil, errors.New("netnode: program table full")
	}
	idx := len(c.progs)
	payload := programPayload(uint16(idx), lang.Format(prog))
	for _, ch := range c.children {
		if !ch.alive.Load() {
			continue
		}
		// A closed outbox means the child died racing this broadcast; the
		// node that needed the code is gone either way, so the program
		// still registers.
		ch.out.push(&proto.Frame{
			Type: proto.FrameProgram, From: proto.HostID, To: proto.ProcID(ch.id),
			Payload: payload,
		})
	}
	c.progs = append(c.progs, prog)
	c.progIdx[prog] = idx
	return idx, nil, nil
}

// Alive implements wall.Links.
func (c *Cluster) Alive(i int) bool { return c.children[i].alive.Load() }

// SendRoot implements wall.Links: a spawn frame from the supervisor; a dead
// destination black-holes it (the dead processor of §3 — the super-root's
// checkpoint is what recovers the work, not the interconnect).
func (c *Cluster) SendRoot(dest int, pkt *node.Packet, reissue bool) {
	var flags byte
	if reissue {
		flags = proto.FlagReissue
	}
	payload := spawnPayload(pkt.TaskPacket)
	c.countFrame(proto.FrameSpawn, len(payload))
	ch := c.children[dest]
	if !ch.alive.Load() || !ch.out.push(&proto.Frame{
		Type: proto.FrameSpawn, Flags: flags, From: proto.HostID, To: proto.ProcID(dest),
		Payload: payload,
	}) {
		c.Drained.Add(1)
	}
}

// countFrame charges one protocol message at its real frame wire size.
func (c *Cluster) countFrame(t proto.FrameType, payloadLen int) {
	c.Msgs.Add(1)
	c.MsgBytes.Add(int64(proto.FrameHeaderSize + payloadLen))
}

// route is the per-child reader: count and forward protocol frames, absorb
// supervision frames, and turn a broken connection into a death. One
// goroutine per child, so a busy node never stalls another's traffic.
func (c *Cluster) route(ch *child) {
	defer c.wg.Done()
	for {
		f, err := proto.ReadFrame(ch.conn)
		if err != nil {
			// SIGKILL, crash, or shutdown: the connection is the failure
			// detector. During Close the EOF is the expected goodbye.
			if !c.closing.Load() {
				c.nodeDied(ch)
			}
			return
		}
		ch.lastBeat.Store(time.Now().UnixNano())
		switch f.Type {
		case proto.FrameHeartbeat:
			// lastBeat above is the whole point.
		case proto.FrameStats:
			if drained, _, err := parseStats(f.Payload); err == nil {
				// Reissues are already counted from FlagReissue frames;
				// only the child-local drain count is news.
				c.Drained.Add(drained)
			}
		case proto.FrameResult:
			c.countFrame(f.Type, len(f.Payload))
			if f.To == proto.HostID {
				if res, err := proto.DecodeResult(f.Payload); err == nil {
					c.Deliver(res)
				} else {
					c.Drained.Add(1)
				}
				continue
			}
			c.forward(f)
		case proto.FrameSpawn:
			c.countFrame(f.Type, len(f.Payload))
			if f.Flags&proto.FlagReissue != 0 {
				c.Reissued.Add(1)
				ch.reissues.Add(1)
			} else {
				c.Spawned.Add(1)
			}
			c.forward(f)
		default:
			// A child never originates other frame types; drop quietly
			// rather than wedge the stream on a protocol slip.
		}
	}
}

// forward relays a child-to-child frame; dead destinations black-hole it.
func (c *Cluster) forward(f *proto.Frame) {
	if f.To < 0 || int(f.To) >= c.n {
		c.Drained.Add(1)
		return
	}
	dest := c.children[f.To]
	if !dest.alive.Load() || !dest.out.push(f) {
		c.Drained.Add(1)
	}
}

// nodeDied is the supervisor's failure handler — idempotent via the alive
// CAS. It closes the conn, gossips the death to survivors, and reissues the
// super-root checkpoints that were resident on the dead node (§4.3.1).
// Kill SIGKILLs and lets the broken connection land here, so injected
// faults and spontaneous crashes take the identical path.
func (c *Cluster) nodeDied(ch *child) {
	if !ch.alive.CompareAndSwap(true, false) {
		return
	}
	ch.conn.Close()
	ch.out.close()
	if !c.recov {
		return // "none": no announcement, lost work stays lost
	}
	payload := nodeDownPayload(ch.id)
	for _, other := range c.children {
		if other == ch || !other.alive.Load() {
			continue
		}
		c.countFrame(proto.FrameNodeDown, len(payload))
		other.out.push(&proto.Frame{
			Type: proto.FrameNodeDown, From: proto.HostID, To: proto.ProcID(other.id),
			Payload: payload,
		})
	}
	c.NodeDied(ch.id)
}

// Kill crashes node id with SIGKILL — no cooperative path. Death detection
// and recovery ride on the broken connection, like any real crash.
func (c *Cluster) Kill(id int) error {
	if id < 0 || id >= c.n {
		return fmt.Errorf("netnode: no node %d", id)
	}
	ch := c.children[id]
	if !ch.alive.Load() {
		return fmt.Errorf("netnode: node %d already dead", id)
	}
	return ch.cmd.Kill()
}

// Shutdown tears the cluster down: graceful stats+exit for live children,
// SIGKILL for stragglers, and a reap of every process — after Shutdown no
// node process exists, whatever state the stream was in. Call exactly once.
func (c *Cluster) Shutdown() {
	c.closing.Store(true)
	for _, ch := range c.children {
		if ch.conn == nil || !ch.alive.Load() {
			continue
		}
		// FIFO behind any pending protocol frames, so the goodbye arrives
		// after the work already queued for this child.
		ch.out.push(&proto.Frame{
			Type: proto.FrameShutdown, From: proto.HostID, To: proto.ProcID(ch.id),
		})
	}
	// Graceful children send stats and exit on their own; the router
	// goroutines fold the stats in and return on EOF. Stragglers (wedged or
	// never-connected) are killed after a short grace.
	for _, ch := range c.children {
		if !ch.cmd.WaitTimeout(2 * time.Second) {
			_ = ch.cmd.Kill()
			ch.cmd.WaitTimeout(2 * time.Second)
		}
	}
	c.teardown()
	c.Stop()
	c.wg.Wait()
}

// teardown closes the listener and sockets and reaps every child process
// unconditionally — also the failure path of a half-built New.
func (c *Cluster) teardown() {
	if c.ln != nil {
		c.ln.Close()
	}
	for _, ch := range c.children {
		if ch.conn != nil {
			ch.conn.Close()
		}
		ch.out.close()
		_ = ch.cmd.Kill()
		ch.cmd.WaitTimeout(2 * time.Second)
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// ReissuesByNode reports how many retained child packets each node re-sent
// as a parent after peer deaths (router-attributed, so it survives the
// reporter's own later death). Root reissues belong to the super-root, not
// to a node.
func (c *Cluster) ReissuesByNode() []int64 {
	out := make([]int64, len(c.children))
	for i, ch := range c.children {
		out[i] = ch.reissues.Load()
	}
	return out
}
