/**
 * @file
 * Node and cluster-level system description.
 *
 * A System is a homogeneous cluster: numNodes nodes, each holding
 * devicesPerNode identical devices connected by an intra-node link
 * (e.g. NVLink), with nodes connected by an inter-node link (e.g.
 * InfiniBand or the NVLink Switch System).
 */

#ifndef OPTIMUS_HW_SYSTEM_H
#define OPTIMUS_HW_SYSTEM_H

#include "hw/device.h"
#include "hw/network.h"

namespace optimus {

/** A homogeneous multi-node accelerator system. */
struct System
{
    Device device;
    int devicesPerNode = 8;
    int numNodes = 1;
    NetworkLink intraLink;  ///< device-to-device within a node
    NetworkLink interLink;  ///< node-to-node, per-device share

    /** Total device count. */
    long long totalDevices() const;

    /** Validate invariants; throws ConfigError on violation. */
    void validate() const;
};

/** Convenience constructor with validation. */
System makeSystem(Device device, int devices_per_node, int num_nodes,
                  NetworkLink intra, NetworkLink inter);

} // namespace optimus

#endif // OPTIMUS_HW_SYSTEM_H
