//go:build !linux || (!amd64 && !arm64)

package udpio

import (
	"errors"
	"net"

	"alpha/internal/telemetry"
)

// newOffloadConn reports that segmentation offload is unavailable here;
// Wrap falls to the batched engine (itself a stub on this platform) and
// then the portable one.
func newOffloadConn(*net.UDPConn, int, *telemetry.IOMetrics) (Conn, error) {
	return nil, errors.New("udpio: segmentation offload unsupported on this platform")
}
