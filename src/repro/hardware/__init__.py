"""Hardware substrate: device, link, server and cluster specifications.

The paper evaluates on Tencent production A100 servers (Table 3). This
package describes that hardware declaratively so both the functional memory
tiers and the discrete-event simulator consume one source of truth.
"""

from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.link import LinkKind, LinkSpec
from repro.hardware.server import ServerSpec, a100_server
from repro.hardware.cluster import ClusterSpec

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "LinkKind",
    "LinkSpec",
    "ServerSpec",
    "ClusterSpec",
    "a100_server",
]
