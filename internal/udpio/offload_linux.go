//go:build linux && (amd64 || arm64)

// The offload rung: UDP GSO sends (one kernel traversal per same-size run)
// and UDP GRO receives (coalesced datagrams split back into segments) over
// the batched engine it embeds. Each feature is probed at socket setup, and
// GSO disables itself if the kernel rejects a segmented send at run time,
// so the rung only ever narrows toward plain recvmmsg/sendmmsg.

package udpio

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"

	"alpha/internal/telemetry"
)

// Linux UAPI numbers the syscall package predates. All frozen ABI.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: cmsg carries the uint16 segment size
	udpGRO     = 104 // UDP_GRO: setsockopt enables coalesced delivery
)

// GSO packing limits: the kernel refuses more than 64 segments per send,
// and the packed run must still fit one UDP payload.
const (
	gsoMaxSegs  = 64
	gsoMaxBytes = 65507
)

// cmsgSpace is CMSG_SPACE for both offload cmsgs on the supported 64-bit
// ABIs: align(sizeof cmsghdr)=16 plus align(2 or 4 data bytes)=8.
const cmsgSpace = 24

// groSlot sizes one coalesced-receive slab slot: a maximally coalesced
// datagram is one full UDP payload.
const groSlot = 64 << 10

var (
	errOffloadUnsupported = errors.New("udpio: kernel grants neither UDP_SEGMENT nor UDP_GRO")
	// errGSOFallback is internal: GSO sends were rejected at runtime, the
	// burst was not transmitted, and the caller must re-send through the
	// plain batched path.
	errGSOFallback = errors.New("udpio: gso rejected, falling back")
)

// groPend is one received (possibly coalesced) datagram waiting in the
// receive slab to be handed out segment by segment.
type groPend struct {
	off, end int // live window into rslab
	seg      int // segment size from the UDP_GRO cmsg; 0 = not coalesced
	addr     net.Addr
}

// offloadConn layers GSO and GRO over the batched engine it embeds,
// reusing its header/iovec/sockaddr scratch, its locks, and its address
// intern cache. The two features are independent: the probe may grant
// either alone, and a runtime rejection turns off only GSO.
type offloadConn struct {
	*batchConn

	// GSO send state (wmu). gsoOn is atomic so a runtime EINVAL can turn
	// the feature off without widening the lock.
	gsoOn atomic.Bool
	wctrl []byte // one cmsgSpace-sized UDP_SEGMENT slot per header
	wruns []int  // datagrams packed per header in the burst being built

	// GRO receive state (rmu): a small slab of full-payload slots the
	// kernel fills, split lazily into caller buffers.
	gro       bool
	groN      int
	rslab     []byte
	gctrl     []byte
	rpends    []groPend
	rpendHead int
	rpendN    int
}

// newOffloadConn builds the offload rung over uc, probing each feature with
// a setsockopt and keeping whatever sticks. It fails (so Wrap falls to the
// batched rung) only when neither was granted or the socket is unusable.
func newOffloadConn(uc *net.UDPConn, batch int, m *telemetry.IOMetrics) (*offloadConn, error) {
	bc, err := newBatchConn(uc, batch, m)
	if err != nil {
		return nil, err
	}
	var gso, gro bool
	cerr := bc.rc.Control(func(fd uintptr) {
		// Value 0 clears any socket-wide segment size (runs are tagged per
		// send via cmsg); success proves kernel support (≥ 4.18).
		gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	if cerr != nil {
		return nil, cerr
	}
	if !gso && !gro {
		return nil, errOffloadUnsupported
	}
	c := &offloadConn{batchConn: bc, gro: gro}
	if gso {
		c.gsoOn.Store(true)
		c.wruns = make([]int, len(bc.whdrs))
		c.wctrl = make([]byte, len(bc.whdrs)*cmsgSpace)
	}
	if gro {
		n := batch / 8
		if n < 1 {
			n = 1
		}
		if n > 8 {
			n = 8
		}
		c.groN = n
		c.rslab = make([]byte, n*groSlot)
		c.gctrl = make([]byte, n*cmsgSpace)
		c.rpends = make([]groPend, n)
	}
	return c, nil
}

// Offload reports the features live now: GRO as granted at setup, GSO
// until a runtime rejection turns it off.
func (c *offloadConn) Offload() OffloadStatus {
	return OffloadStatus{GSO: c.gsoOn.Load(), GRO: c.gro}
}

// WriteBatch packs ms into GSO runs while GSO is live, and otherwise
// delegates straight to the batched engine.
//
//alpha:hotpath
func (c *offloadConn) WriteBatch(ms []Message) (int, error) {
	if !c.gsoOn.Load() {
		return c.batchConn.WriteBatch(ms)
	}
	c.wmu.Lock()
	sent := 0
	for sent < len(ms) {
		n, err := c.sendBurst(ms[sent:])
		sent += n
		if err == errGSOFallback {
			// The kernel rejected UDP_SEGMENT at send time (offload probe
			// passed but the path refuses, e.g. some virtual devices).
			// Nothing from this burst was transmitted; re-send plainly,
			// on headers cleared of the UDP_SEGMENT cmsgs the plain path
			// never touches.
			for i := range c.whdrs {
				c.whdrs[i].hdr.Control, c.whdrs[i].hdr.Controllen = nil, 0
			}
			c.wmu.Unlock()
			m, merr := c.batchConn.WriteBatch(ms[sent:])
			return sent + m, merr
		}
		if err != nil {
			c.wmu.Unlock()
			return sent, err
		}
	}
	c.wmu.Unlock()
	return sent, nil
}

// sendBurst packs one sendmmsg burst from the front of ms — GSO runs of
// same-destination, equal-size datagrams become single headers — and sends
// it. Returns datagrams consumed. Caller holds wmu, with GSO live.
//
//alpha:hotpath
func (c *offloadConn) sendBurst(ms []Message) (int, error) {
	nh, iv, used := 0, 0, 0
	anyGSO := false
	for used < len(ms) && nh < len(c.whdrs) && iv < len(c.wiovs) {
		// A run: consecutive messages to the same destination with equal
		// size; one smaller tail segment may close it (kernel rule).
		sz := ms[used].N
		run := 1
		if sz > 0 && sz <= gsoMaxBytes {
			maxRun := len(c.wiovs) - iv
			if maxRun > gsoMaxSegs {
				maxRun = gsoMaxSegs
			}
			if maxRun > len(ms)-used {
				maxRun = len(ms) - used
			}
			total := sz
			for run < maxRun {
				nxt := &ms[used+run]
				if nxt.Addr != ms[used].Addr || nxt.N <= 0 || nxt.N > sz || total+nxt.N > gsoMaxBytes {
					break
				}
				total += nxt.N
				run++
				if nxt.N < sz {
					break
				}
			}
		}
		nl, err := c.destAddr(ms[used].Addr, &c.wnames[nh])
		if err != nil {
			if nh > 0 {
				break // flush what is packed; the retry surfaces the error
			}
			return 0, err
		}
		h := &c.whdrs[nh].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.wnames[nh]))
		h.Namelen = nl
		h.Iov = &c.wiovs[iv]
		h.Iovlen = uint64(run)
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
		c.whdrs[nh].n = 0
		for k := 0; k < run; k++ {
			msg := &ms[used+k]
			if msg.N > 0 {
				c.wiovs[iv+k].Base = &msg.Buf[0]
			} else {
				c.wiovs[iv+k].Base = nil
			}
			c.wiovs[iv+k].SetLen(msg.N)
		}
		if run > 1 {
			ctrl := c.wctrl[nh*cmsgSpace : nh*cmsgSpace+cmsgSpace]
			cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			cm.Level = solUDP
			cm.Type = udpSegment
			cm.Len = uint64(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(sz)
			h.Control = &ctrl[0]
			h.Controllen = cmsgSpace
			anyGSO = true
		}
		c.wruns[nh] = run
		nh++
		iv += run
		used += run
	}
	if nh == 0 {
		return 0, nil
	}

	c.wn, c.wgot, c.werrno = nh, 0, 0
	if err := c.rc.Write(c.writeFn); err != nil {
		return 0, err
	}
	if c.werrno != 0 {
		if anyGSO && (c.werrno == syscall.EINVAL || c.werrno == syscall.EIO ||
			c.werrno == syscall.EOPNOTSUPP || c.werrno == syscall.EMSGSIZE) {
			c.gsoOn.Store(false)
			return 0, errGSOFallback
		}
		return 0, errnoErr(c.werrno)
	}
	got := c.wgot
	if got == 0 {
		return 0, errNoProgress
	}
	dgrams := 0
	for i := 0; i < got; i++ {
		dgrams += c.wruns[i]
		if c.wruns[i] > 1 {
			c.m.NoteGSOWrite(c.wruns[i])
		}
	}
	c.m.NoteWrite(dgrams)
	return dgrams, nil
}

// ReadBatch serves segments split out of coalesced datagrams while GRO is
// live, refilling the receive slab with one recvmmsg when the pending
// queue drains; without GRO it is the plain batched read.
//
//alpha:hotpath
func (c *offloadConn) ReadBatch(ms []Message) (int, error) {
	if !c.gro {
		return c.batchConn.ReadBatch(ms)
	}
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		if out := c.servePend(ms); out > 0 {
			return out, nil
		}
		if err := c.fillPend(); err != nil {
			return 0, err
		}
	}
}

// servePend copies pending segments into caller buffers: seg-sized chunks
// of each coalesced datagram (the last may be smaller), whole datagrams
// when not coalesced. Caller holds rmu.
//
//alpha:hotpath
func (c *offloadConn) servePend(ms []Message) int {
	out := 0
	for c.rpendHead < c.rpendN && out < len(ms) {
		p := &c.rpends[c.rpendHead]
		chunk := p.end - p.off
		if p.seg > 0 && chunk > p.seg {
			chunk = p.seg
		}
		n := copy(ms[out].Buf, c.rslab[p.off:p.off+chunk])
		ms[out].N, ms[out].Addr = n, p.addr
		p.off += chunk
		if p.off >= p.end {
			c.rpendHead++
		}
		out++
	}
	return out
}

// fillPend issues one recvmmsg into the GRO slab and queues every received
// datagram (split metadata included) for servePend. Caller holds rmu.
//
//alpha:hotpath
func (c *offloadConn) fillPend() error {
	n := c.groN
	for i := 0; i < n; i++ {
		base := i * groSlot
		c.riovs[i].Base = &c.rslab[base]
		c.riovs[i].SetLen(groSlot)
		h := &c.rhdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.rnames[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &c.riovs[i]
		h.Iovlen = 1
		h.Control = &c.gctrl[i*cmsgSpace]
		h.Controllen = cmsgSpace
		h.Flags = 0
		c.rhdrs[i].n = 0
	}
	c.rn, c.rgot, c.rerrno = n, 0, 0
	if err := c.rc.Read(c.readFn); err != nil {
		return err
	}
	if c.rerrno != 0 {
		return errnoErr(c.rerrno)
	}
	got := c.rgot
	total := 0
	for i := 0; i < got; i++ {
		dl := int(c.rhdrs[i].n)
		seg := c.groSegSize(i)
		base := i * groSlot
		c.rpends[i] = groPend{off: base, end: base + dl, seg: seg, addr: c.sourceAddr(&c.rnames[i])}
		segs := 1
		if seg > 0 && dl > seg {
			segs = (dl + seg - 1) / seg
			c.m.NoteGRORead(segs)
		}
		total += segs
	}
	c.rpendHead, c.rpendN = 0, got
	if got > 0 {
		c.m.NoteRead(total)
	}
	return nil
}

// groSegSize extracts the UDP_GRO segment size the kernel attached to
// header i, or 0 when the datagram arrived un-coalesced.
//
//alpha:hotpath
func (c *offloadConn) groSegSize(i int) int {
	h := &c.rhdrs[i].hdr
	if int(h.Controllen) < syscall.CmsgLen(4) {
		return 0
	}
	ctrl := c.gctrl[i*cmsgSpace:]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	if cm.Level == solUDP && cm.Type == udpGRO && int(cm.Len) >= syscall.CmsgLen(4) {
		return int(*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])))
	}
	return 0
}
