"""LEOTP protocol parameters.

Defaults follow the paper: 15-byte LEOTP header over UDP (Sec. IV-B),
4096-byte cache blocks with LRU replacement (Sec. IV-A), SHR disorder
threshold N (Algorithm 1), RFC 6298 RTO with x1.5 backoff for Timeout
Retransmission (Sec. III-B), and the congestion constants k = 0.8 and the
queue threshold M of equation (8) (Sec. III-C).

The ablation flags reproduce Table II's configurations:

=====  ===============  =================
row    enable_cache     hop_by_hop_cc
=====  ===============  =================
A      True             True
B      False            True
C      True             False
D      (no Midnodes — build with coverage=0)
=====  ===============  =================
"""

from __future__ import annotations

from dataclasses import dataclass

LEOTP_HEADER_BYTES = 15
UDP_IP_OVERHEAD_BYTES = 28  # 20 IPv4 + 8 UDP, LEOTP runs over UDP


@dataclass(frozen=True)
class LeotpConfig:
    """Tunable parameters of a LEOTP deployment.

    Responder re-serve damping has no parameter: a sending buffer's
    window is its own echoed hopRTT (:class:`~repro.core.paced.PacedSender`).
    """

    # Data plane.
    mss: int = 1400                       # payload bytes per Data packet
    cache_capacity_bytes: int = 64 << 20  # per-Midnode cache
    cache_block_bytes: int = 4096

    # SHR (Sequence Hole Retransmission).
    shr_disorder_threshold: int = 3       # N of Algorithm 1
    shr_max_holes: int = 1024             # safety bound on tracked holes

    # TR (Timeout Retransmission) at the Consumer.
    tr_check_interval_s: float = 0.02
    tr_backoff_factor: float = 1.5
    tr_min_rto_s: float = 0.2
    tr_initial_rto_s: float = 0.5
    tr_max_retries: int = 50

    # Hop-by-hop congestion control (Sec. III-C).
    initial_cwnd_packets: int = 10
    queue_threshold_bytes: int = 6 * 1400   # M of equation (8)
    cwnd_backoff_factor: float = 0.8        # k of equation (8)
    buffer_target_bytes: int = 8 * 1400     # BL_tar of equation (9)
    # Damping on the backpressure correction term (BL_tar - BL)/hopRTT; a
    # gain of 1 over-reacts to single-packet buffer jitter and produces a
    # bang-bang limit cycle across the hop chain.
    backpressure_gain: float = 0.5
    hoprtt_min_window_s: float = 5.0
    # Window for the Consumer's end-to-end RTT minimum (sizes the in-flight
    # window).  Longer than the hop window: expiry of the true propagation
    # minimum makes the standing Midnode buffers look like new propagation
    # delay and causes periodic re-probing dips.
    e2e_rtt_min_window_s: float = 30.0
    min_rate_bytes_s: float = 25_000.0      # 0.2 Mbps floor
    max_cwnd_bytes: int = 8 << 20
    initial_hoprtt_s: float = 0.05
    # Window growth is delivery-gated: grow only while deliveries track at
    # least this fraction of the window per hopRTT (full-pipe detection).
    utilisation_threshold: float = 0.85
    # The Consumer's in-flight window is rate * e2e RTTmin * this headroom.
    window_headroom: float = 1.1

    # Ablation switches (Table II).
    enable_cache: bool = True   # in-network retransmission (SHR + cache)
    hop_by_hop_cc: bool = True  # False = endpoints-only congestion control
    # Design-choice ablation: disable Void Packet Headers.  Holes are then
    # detected (and re-requested) independently by every downstream node,
    # reproducing the duplicate-retransmission problem VPH exists to solve.
    enable_vph: bool = True

    @property
    def data_packet_bytes(self) -> int:
        """On-the-wire size of a full Data packet."""
        return self.mss + LEOTP_HEADER_BYTES + UDP_IP_OVERHEAD_BYTES
