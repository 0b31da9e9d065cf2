#include "timed/timed_net.hh"

#include <algorithm>
#include <type_traits>

#include "util/logging.hh"

namespace dir2b
{

// Delivery events capture a Message by value; a trivially copyable
// Message keeps them on the event kernel's memcpy relocation path.
static_assert(std::is_trivially_copyable_v<Message>);

TimedNetwork::TimedNetwork(EventQueue &eq, unsigned endpoints,
                           Tick latency, NetKind kind,
                           TraceRecorder *trc)
    : eq_(eq),
      latency_(latency),
      kind_(kind),
      handlers_(endpoints),
      portFreeAt_(endpoints, 0)
{
#if DIR2B_TRACE
    if ((trc_ = trc))
        trk_ = trc_->addTrack("net");
#else
    (void)trc;
#endif
}

void
TimedNetwork::connect(unsigned ep, Handler handler)
{
    DIR2B_ASSERT(ep < handlers_.size(), "connect to unknown endpoint ",
                 ep);
    handlers_[ep] = std::move(handler);
}

Tick
TimedNetwork::claimDelivery(unsigned dst)
{
    Tick deliverAt = eq_.now() + latency_;
    switch (kind_) {
      case NetKind::Ideal:
        break;
      case NetKind::Crossbar: {
        const Tick free = portFreeAt_[dst];
        if (free > deliverAt) {
            portWait_.inc(free - deliverAt);
            deliverAt = free;
        }
        portFreeAt_[dst] = deliverAt + 1;
        break;
      }
      case NetKind::Bus: {
        if (busFreeAt_ > deliverAt) {
            portWait_.inc(busFreeAt_ - deliverAt);
            deliverAt = busFreeAt_;
        }
        busFreeAt_ = deliverAt + 1;
        ++busBusy_;
        break;
      }
    }
    return deliverAt;
}

void
TimedNetwork::send(unsigned src, unsigned dst, Message msg)
{
    DIR2B_ASSERT(dst < handlers_.size() && handlers_[dst],
                 "send to unconnected endpoint ", dst);
    ++messages_;
    if (msg.kind == MsgKind::GetData || msg.kind == MsgKind::PutData)
        ++dataMsgs_;
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, mnemonic(msg.kind),
                            msg.addr, src, dst));

    const Tick deliverAt = claimDelivery(dst);
    eq_.scheduleAt(deliverAt, [this, src, dst, msg] {
        handlers_[dst](src, msg);
    });
}

void
TimedNetwork::broadcast(unsigned src, const std::vector<unsigned> &dsts,
                        Message msg)
{
    ++broadcasts_;
    msg.broadcast = true;

    if (kind_ == NetKind::Bus) {
        // A shared medium delivers a broadcast in ONE bus transaction:
        // every listener observes the same slot — the free fan-out
        // that makes the §2.5 bus schemes viable, and that a general
        // interconnection network does not offer.
        const Tick deliverAt = claimDelivery(0);
        for (unsigned dst : dsts) {
            DIR2B_ASSERT(dst < handlers_.size() && handlers_[dst],
                         "broadcast to unconnected endpoint ", dst);
            ++messages_;
            DIR2B_TRC(trc_, instant(eq_.now(), trk_,
                                    mnemonic(msg.kind), msg.addr, src,
                                    dst));
            eq_.scheduleAt(deliverAt, [this, src, dst, msg] {
                handlers_[dst](src, msg);
            });
        }
        return;
    }

    for (unsigned dst : dsts)
        send(src, dst, msg);
}

} // namespace dir2b
