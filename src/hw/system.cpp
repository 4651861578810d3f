#include "hw/system.h"

#include "lint/lint.h"

namespace optimus {

long long
System::totalDevices() const
{
    return static_cast<long long>(devicesPerNode) * numNodes;
}

void
System::validate() const
{
    lint::enforce(lint::lintSystem(*this));
}

System
makeSystem(Device device, int devices_per_node, int num_nodes,
           NetworkLink intra, NetworkLink inter)
{
    System sys;
    sys.device = std::move(device);
    sys.devicesPerNode = devices_per_node;
    sys.numNodes = num_nodes;
    sys.intraLink = std::move(intra);
    sys.interLink = std::move(inter);
    sys.validate();
    return sys;
}

} // namespace optimus
