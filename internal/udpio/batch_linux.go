//go:build linux && (amd64 || arm64)

// The Linux batched engine: recvmmsg/sendmmsg issued through SyscallConn,
// so batched syscalls still park goroutines on the runtime netpoller
// instead of spinning on EAGAIN. Built with the standard syscall package
// only; the mmsghdr layout and the syscall numbers (frozen out of stdlib
// before sendmmsg existed) are spelled out here.

package udpio

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"unsafe"

	"alpha/internal/telemetry"
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: one msghdr plus the
// kernel-filled datagram length. Go's implicit trailing padding matches the
// C layout on the supported 64-bit ABIs.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// addrKey indexes the source-address intern cache. IPv4 sources use the
// 4-in-6 mapped layout so one key space covers both families.
type addrKey struct {
	ip   [16]byte
	port uint16
}

// Errors the syscall paths return, built once: an errors.New or an
// Errno-to-error conversion at a return site would allocate on a path that
// promises zero allocations.
var (
	errNotBound    = errors.New("udpio: not a bound UDP socket")
	errNoProgress  = errors.New("udpio: sendmmsg made no progress")
	errNonUDPDest  = errors.New("udpio: non-UDP destination address")
	errBadDestIP   = errors.New("udpio: invalid destination IP")
	errV6OnV4      = errors.New("udpio: IPv6 destination on an IPv4 socket")
	preboxedErrnos = func() (t [134]error) { // every errno Linux defines
		for i := range t {
			t[i] = syscall.Errno(i)
		}
		return t
	}()
)

// errnoErr returns e as an error without boxing it. Not inlined, so the
// one boxing conversion stays here rather than at every hot return site.
//
//go:noinline
func errnoErr(e syscall.Errno) error {
	if int(e) < len(preboxedErrnos) {
		return preboxedErrnos[e]
	}
	return e //alpha:alloc-ok unreachable for errnos the kernel defines; kept so an unknown one is reported, not masked
}

// addrCacheLimit bounds the intern cache; a source-address flood past it
// resets the map (live sessions keep their own *net.UDPAddr pointers, so a
// reset only costs future lookups one allocation each).
const addrCacheLimit = 1 << 16

// batchConn implements Conn with recvmmsg/sendmmsg. All per-call scratch —
// header and iovec arrays, sockaddr slots, the callback closures handed to
// RawConn — is preallocated, so warm ReadBatch/WriteBatch calls perform
// zero heap allocations.
type batchConn struct {
	uc *net.UDPConn
	rc syscall.RawConn
	m  *telemetry.IOMetrics
	v6 bool // socket family: encode destinations as AF_INET6

	// Read side, guarded by rmu. rn/rgot/rerrno carry the in-flight call's
	// state so readFn (created once) captures nothing per call.
	rmu    sync.Mutex
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6
	addrs  map[addrKey]*net.UDPAddr
	rn     int
	rgot   int
	rerrno syscall.Errno
	readFn func(fd uintptr) bool

	// Write side, guarded by wmu; same single-closure discipline.
	wmu     sync.Mutex
	whdrs   []mmsghdr
	wiovs   []syscall.Iovec
	wnames  []syscall.RawSockaddrInet6
	wn      int
	wgot    int
	werrno  syscall.Errno
	writeFn func(fd uintptr) bool
}

func newBatchConn(uc *net.UDPConn, batch int, m *telemetry.IOMetrics) (*batchConn, error) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	la, ok := uc.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil, errNotBound
	}
	c := &batchConn{
		uc: uc, rc: rc, m: m,
		v6:     la.IP.To4() == nil,
		rhdrs:  make([]mmsghdr, batch),
		riovs:  make([]syscall.Iovec, batch),
		rnames: make([]syscall.RawSockaddrInet6, batch),
		addrs:  make(map[addrKey]*net.UDPAddr),
		whdrs:  make([]mmsghdr, batch),
		wiovs:  make([]syscall.Iovec, batch),
		wnames: make([]syscall.RawSockaddrInet6, batch),
	}
	c.readFn = c.recvmmsg
	c.writeFn = c.sendmmsg
	return c, nil
}

func (c *batchConn) Batched() bool { return true }

func (c *batchConn) Offload() OffloadStatus { return OffloadStatus{} }

// recvmmsg is the RawConn.Read callback: one non-blocking batched receive,
// false on EAGAIN so the netpoller parks us until the socket is readable.
func (c *batchConn) recvmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(c.rn),
		syscall.MSG_DONTWAIT, 0, 0)
	switch errno {
	case 0:
		c.rgot = int(r)
	case syscall.EAGAIN, syscall.EINTR:
		return false
	default:
		c.rerrno = errno
	}
	return true
}

// ReadBatch drains up to len(ms) datagrams in one recvmmsg syscall.
//
//alpha:hotpath
func (c *batchConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	n := len(ms)
	if n > len(c.rhdrs) {
		n = len(c.rhdrs)
	}
	for i := 0; i < n; i++ {
		c.riovs[i].Base = &ms[i].Buf[0]
		c.riovs[i].SetLen(len(ms[i].Buf))
		h := &c.rhdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&c.rnames[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &c.riovs[i]
		h.Iovlen = 1
		c.rhdrs[i].n = 0
	}
	c.rn, c.rgot, c.rerrno = n, 0, 0
	if err := c.rc.Read(c.readFn); err != nil {
		return 0, err
	}
	if c.rerrno != 0 {
		return 0, errnoErr(c.rerrno)
	}
	got := c.rgot
	for i := 0; i < got; i++ {
		ms[i].N = int(c.rhdrs[i].n)
		ms[i].Addr = c.sourceAddr(&c.rnames[i])
	}
	c.m.NoteRead(got)
	return got, nil
}

// sourceAddr interns a raw source sockaddr as a *net.UDPAddr. Datagram
// floods repeat a small peer set, so the cache keeps the steady-state read
// path allocation-free.
func (c *batchConn) sourceAddr(sa *syscall.RawSockaddrInet6) net.Addr {
	var key addrKey
	v4 := false
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		key.ip[10], key.ip[11] = 0xff, 0xff
		copy(key.ip[12:], sa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		key.port = uint16(p[0])<<8 | uint16(p[1])
		v4 = true
	case syscall.AF_INET6:
		key.ip = sa.Addr
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		key.port = uint16(p[0])<<8 | uint16(p[1])
	default:
		return nil
	}
	if a, ok := c.addrs[key]; ok {
		return a
	}
	return c.internAddr(key, v4) //alpha:alloc-ok cache miss: one address per new peer, then served from the map
}

// internAddr is sourceAddr's miss path: allocate the address and cache it.
func (c *batchConn) internAddr(key addrKey, v4 bool) net.Addr {
	if len(c.addrs) >= addrCacheLimit {
		clear(c.addrs)
	}
	a := &net.UDPAddr{Port: int(key.port)}
	if v4 {
		a.IP = append(net.IP(nil), key.ip[12:]...)
	} else {
		a.IP = append(net.IP(nil), key.ip[:]...)
	}
	c.addrs[key] = a
	return a
}

// sendmmsg is the RawConn.Write callback, the mirror of recvmmsg.
func (c *batchConn) sendmmsg(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&c.whdrs[0])), uintptr(c.wn),
		syscall.MSG_DONTWAIT, 0, 0)
	switch errno {
	case 0:
		c.wgot = int(r)
	case syscall.EAGAIN, syscall.EINTR:
		return false
	default:
		c.werrno = errno
	}
	return true
}

// WriteBatch pushes the messages out in sendmmsg bursts.
//
//alpha:hotpath
func (c *batchConn) WriteBatch(ms []Message) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	sent := 0
	for sent < len(ms) {
		n := len(ms) - sent
		if n > len(c.whdrs) {
			n = len(c.whdrs)
		}
		for i := 0; i < n; i++ {
			msg := &ms[sent+i]
			nl, err := c.destAddr(msg.Addr, &c.wnames[i])
			if err != nil {
				return sent, err
			}
			if msg.N > 0 {
				c.wiovs[i].Base = &msg.Buf[0]
			} else {
				c.wiovs[i].Base = nil
			}
			c.wiovs[i].SetLen(msg.N)
			h := &c.whdrs[i].hdr
			h.Name = (*byte)(unsafe.Pointer(&c.wnames[i]))
			h.Namelen = nl
			h.Iov = &c.wiovs[i]
			h.Iovlen = 1
			c.whdrs[i].n = 0
		}
		c.wn, c.wgot, c.werrno = n, 0, 0
		if err := c.rc.Write(c.writeFn); err != nil {
			return sent, err
		}
		if c.werrno != 0 {
			return sent, errnoErr(c.werrno)
		}
		if c.wgot == 0 {
			// sendmmsg reported readiness but accepted nothing; bail out
			// rather than livelock.
			return sent, errNoProgress
		}
		c.m.NoteWrite(c.wgot)
		sent += c.wgot
	}
	return sent, nil
}

// destAddr encodes one destination into a preallocated sockaddr slot,
// matching the socket family (IPv4 destinations become v4-mapped IPv6 on
// dual-stack sockets). Zones are not supported on the batched path.
func (c *batchConn) destAddr(addr net.Addr, out *syscall.RawSockaddrInet6) (uint32, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, errNonUDPDest
	}
	ip4 := ua.IP.To4()
	if c.v6 {
		*out = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		switch {
		case ip4 != nil:
			out.Addr[10], out.Addr[11] = 0xff, 0xff
			copy(out.Addr[12:], ip4)
		case len(ua.IP) == net.IPv6len:
			copy(out.Addr[:], ua.IP)
		default:
			return 0, errBadDestIP
		}
		p := (*[2]byte)(unsafe.Pointer(&out.Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		return syscall.SizeofSockaddrInet6, nil
	}
	if ip4 == nil {
		return 0, errV6OnV4
	}
	out4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(out))
	*out4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	copy(out4.Addr[:], ip4)
	p := (*[2]byte)(unsafe.Pointer(&out4.Port))
	p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
	return syscall.SizeofSockaddrInet4, nil
}
