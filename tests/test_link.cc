/**
 * @file
 * Link tests (paper section 2.3, Figure 1): message passing between
 * two transputers, protocol timing (11-bit data packets, 2-bit
 * acknowledges, ack overlap), single-byte-buffer flow control,
 * word-length interworking, and ALT over link channels.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hh"

using namespace transputer;
using net::Network;
using net::dir::east;
using net::dir::west;

namespace
{

/** Boot asm source on a node; returns the boot workspace pointer. */
Word
bootAsm(Network &net, int node, const std::string &src)
{
    auto &t = net.node(node);
    const auto img = tasm::assemble(src, t.memory().memStart(),
                                    t.shape());
    net.load(node, img);
    const Word wptr = t.shape().index(
        t.shape().wordAlign(img.end() + t.shape().bytes - 1), 128);
    t.boot(img.symbol("start"), wptr);
    return wptr;
}

uint8_t
byteAt(Network &net, int node, Word wptr, int slot, int i)
{
    auto &t = net.node(node);
    return t.memory().readByte(
        t.shape().truncate(t.shape().index(wptr, slot) + i));
}

Word
wordAt(Network &net, int node, Word wptr, int slot)
{
    auto &t = net.node(node);
    return t.memory().readWord(t.shape().index(wptr, slot));
}

/**
 * Sender: outputs n patterned bytes on the link whose output channel
 * is reserved word out_word (link 1 east -> word 1).
 */
std::string
senderSrc(int n, int out_word = 1)
{
    std::string s = "start:\n"
                    "  mint\n ldnlp " + std::to_string(out_word) +
                    "\n stl 1\n"
                    "  ldap tab\n ldl 1\n ldc " + std::to_string(n) +
                    "\n out\n"
                    "  ldc 1\n stl 2\n stopp\n"
                    "tab: .byte ";
    for (int i = 0; i < n; ++i)
        s += std::to_string((i + 1) & 0xFF) +
             (i + 1 < n ? ", " : "\n");
    return s;
}

/**
 * Receiver: inputs n bytes into slot 30.. from the link whose input
 * channel is reserved word in_word (link 3 west -> word 7).
 */
std::string
receiverSrc(int n, int in_word = 7)
{
    return "start:\n"
           "  mint\n ldnlp " + std::to_string(in_word) + "\n stl 1\n"
           "  ldlp 30\n ldl 1\n ldc " + std::to_string(n) + "\n in\n"
           "  ldc 1\n stl 2\n stopp\n";
}

} // namespace

TEST(Link, MessageCrossesBetweenTransputers)
{
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(8));
    const Word wb = bootAsm(net, b, receiverSrc(8));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u); // receiver completed
}

TEST(Link, FourByteMessageTakesAboutSixMicroseconds)
{
    // paper section 4.2: "It takes about 6 microseconds to send a 4
    // byte message from one transputer to another."
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(4));
    bootAsm(net, b, receiverSrc(4));
    const Tick t = net.run();
    // the wire part alone is 4 x 1.1 us of data + the final 0.2 us
    // acknowledge; instruction setup on both ends adds the rest
    EXPECT_GT(t, 4'400);
    EXPECT_LT(t, 8'000);
}

TEST(Link, ThroughputApproachesOneMegabytePerSecond)
{
    // continuous transmission at 11 bits/byte on a 10 Mbit/s line is
    // ~0.91 Mbyte/s ("about 1 Mbyte/sec", section 2.3.1)
    Network net;
    core::Config cfg;
    cfg.onchipBytes = 8192;
    const int a = net.addTransputer(cfg);
    const int b = net.addTransputer(cfg);
    net.connect(a, east, b, west);
    const int n = 4096;
    bootAsm(net, a,
            "start:\n  mint\n ldnlp 1\n stl 1\n"
            "  ldlp 40\n ldl 1\n ldc " + std::to_string(n) +
            "\n out\n stopp\n");
    bootAsm(net, b,
            "start:\n  mint\n ldnlp 7\n stl 1\n"
            "  ldlp 40\n ldl 1\n ldc " + std::to_string(n) +
            "\n in\n stopp\n");
    const Tick t = net.run();
    const double mb_per_s = n / (static_cast<double>(t) / 1e9) / 1e6;
    EXPECT_GT(mb_per_s, 0.88);
    EXPECT_LT(mb_per_s, 0.92);
}

TEST(Link, NonOverlappedAckIsSlower)
{
    // ablation: acknowledging only after each whole byte stalls the
    // sender ~13 bit-times per byte instead of streaming at 11
    auto elapsed = [](link::AckMode mode) {
        Network net;
        const int a = net.addTransputer();
        const int b = net.addTransputer();
        net.connect(a, east, b, west, link::WireConfig{}, mode);
        bootAsm(net, a, senderSrc(64));
        bootAsm(net, b, receiverSrc(64));
        return net.run();
    };
    const Tick fast = elapsed(link::AckMode::Overlap);
    const Tick slow = elapsed(link::AckMode::EndOfByte);
    EXPECT_GT(slow, fast + 10'000);
    EXPECT_NEAR(static_cast<double>(slow) / fast, 13.0 / 11.0, 0.12);
}

TEST(Link, WordLengthInterworking)
{
    // a 32-bit part talks to a 16-bit part: the byte-stream protocol
    // is word-length independent ("transputers of different
    // wordlength ... all interwork", section 2.3)
    Network net;
    core::Config c16;
    c16.shape = word16;
    c16.onchipBytes = 2048;
    const int a = net.addTransputer();    // 32-bit sender
    const int b = net.addTransputer(c16); // 16-bit receiver
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(6));
    const Word wb = bootAsm(net, b, receiverSrc(6));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, SixteenBitSenderToThirtyTwoBitReceiver)
{
    Network net;
    core::Config c16;
    c16.shape = word16;
    c16.onchipBytes = 2048;
    const int a = net.addTransputer(c16);
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(6));
    const Word wb = bootAsm(net, b, receiverSrc(6));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, SingleByteBufferFlowControl)
{
    // the receiver posts its input ~100 us after the sender started:
    // at most one byte buffers, nothing is lost, the sender stalls on
    // withheld acknowledges
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(16));
    const Word wb = bootAsm(
        net, b,
        "start:\n"
        "  ldc 300\n stl 5\n"
        "spin:\n ldl 5\n adc -1\n stl 5\n ldl 5\n cj go\n j spin\n"
        "go:\n"
        "  mint\n ldnlp 7\n stl 1\n"
        "  ldlp 30\n ldl 1\n ldc 16\n in\n"
        "  ldc 1\n stl 2\n stopp\n");
    const Tick t = net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    // the transfer could only finish after the receiver's ~100 us spin
    EXPECT_GT(t, 100'000);
}

TEST(Link, AltAcrossALink)
{
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(4));
    const Word wb = bootAsm(
        net, b,
        "start:\n"
        "  mint\n ldnlp 7\n stl 1\n"
        "  alt\n"
        "  ldl 1\n ldc 1\n enbc\n"
        "  altwt\n"
        "  ldl 1\n ldc 1\n ldc b1 - done\n disc\n"
        "  altend\n"
        "done:\n"
        "b1:\n ldlp 30\n ldl 1\n ldc 4\n in\n"
        "  ldc 1\n stl 2\n stopp\n");
    net.run();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, BidirectionalTrafficSharesTheWirePair)
{
    // both nodes stream 1024 bytes to each other simultaneously: each
    // line carries data packets plus the acks of the reverse stream
    Network net;
    core::Config cfg;
    cfg.onchipBytes = 16384;
    const int a = net.addTransputer(cfg);
    const int b = net.addTransputer(cfg);
    net.connect(a, east, b, west);
    auto src = [](int out_word, int in_word) {
        return std::string("start:\n") +
               "  mint\n ldnlp " + std::to_string(out_word) +
               "\n stl 1\n" +
               "  mint\n ldnlp " + std::to_string(in_word) +
               "\n stl 2\n" +
               // PAR of a sender and a receiver process
               "  ldc 2\n stl 11\n"
               "  ldap succ\n stl 10\n"
               "  ldc sender - c0\n ldlp -40\n startp\n"
               "c0:\n"
               "  ldlp 100\n ldl 2\n ldc 1024\n in\n"
               "  ldlp 10\n endp\n"
               "sender:\n"
               "  ldlp 440\n ldl 41\n ldc 1024\n out\n" // W+400 src
               "  ldlp 50\n endp\n"
               "succ:\n ajw -10\n ldc 1\n stl 3\n stopp\n";
    };
    const Word wa = bootAsm(net, a, src(1, 5)); // a: link 1 (east)
    const Word wb = bootAsm(net, b, src(3, 7)); // b: link 3 (west)
    const Tick t = net.run();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(wordAt(net, a, wa, 3), 1u);
    EXPECT_EQ(wordAt(net, b, wb, 3), 1u);
    // 1024 bytes * 13 bits at 100 ns/bit = ~1.33 ms per direction,
    // running concurrently (far less than the 2.24 ms serial time)
    EXPECT_GT(t, 1'250'000);
    EXPECT_LT(t, 1'500'000);
}

TEST(Link, OverlappedAckArrivesDuringTheDataPacket)
{
    // AckMode edge case: with the receiver already waiting, the ack
    // for each byte goes back onto the reverse line while that byte
    // is still being transmitted (paper Figure 1), and the data
    // packets stream back to back at exactly 11 bit times
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    std::vector<link::Line::Packet> data, acks;
    for (const auto &lr : net.lines()) {
        if (lr.srcNode == a)
            lr.line->onPacket = [&](const link::Line::Packet &p) {
                if (p.isData)
                    data.push_back(p);
            };
        else
            lr.line->onPacket = [&](const link::Line::Packet &p) {
                if (!p.isData)
                    acks.push_back(p);
            };
    }
    bootAsm(net, a, senderSrc(8));
    bootAsm(net, b, receiverSrc(8));
    net.run();
    EXPECT_TRUE(net.quiescent());
    ASSERT_EQ(data.size(), 8u);
    ASSERT_EQ(acks.size(), 8u);
    // steady state: zero inter-packet gap on the data line
    for (size_t i = 1; i < data.size(); ++i)
        EXPECT_EQ(data[i].start, data[i - 1].end) << "byte " << i;
    // every ack starts strictly inside its data packet's wire time
    // (it is sent when the second bit has been classified)
    for (size_t i = 1; i < data.size(); ++i) {
        EXPECT_GT(acks[i].start, data[i].start) << "ack " << i;
        EXPECT_LT(acks[i].end, data[i].end) << "ack " << i;
    }
}

TEST(Link, EndOfByteAckSetsThirteenBitPacketSpacing)
{
    // AckMode edge case: back-to-back packets at the minimum spacing
    // each mode allows -- 11 bit times overlapped, 13 (11 data + 2
    // ack) when the ack waits for the end of the byte.  Exact
    // spacing, not just a throughput ratio.
    for (const auto mode :
         {link::AckMode::Overlap, link::AckMode::EndOfByte}) {
        Network net;
        const int a = net.addTransputer();
        const int b = net.addTransputer();
        net.connect(a, east, b, west, link::WireConfig{}, mode);
        std::vector<link::Line::Packet> data;
        for (const auto &lr : net.lines())
            if (lr.srcNode == a)
                lr.line->onPacket =
                    [&](const link::Line::Packet &p) {
                        if (p.isData)
                            data.push_back(p);
                    };
        bootAsm(net, a, senderSrc(16));
        bootAsm(net, b, receiverSrc(16));
        net.run();
        EXPECT_TRUE(net.quiescent());
        ASSERT_EQ(data.size(), 16u);
        const Tick bit = link::WireConfig{}.bitTime();
        const Tick spacing =
            mode == link::AckMode::Overlap ? 11 * bit : 13 * bit;
        // skip the first gap (instruction setup); all later packets
        // run at the protocol minimum exactly
        for (size_t i = 2; i < data.size(); ++i)
            EXPECT_EQ(data[i].start - data[i - 1].start, spacing)
                << "byte " << i;
    }
}

TEST(Link, WireReconfigurationMidMessage)
{
    // AckMode edge case: the wire's behaviour changes *during* a
    // message -- a fault tap slowing every data packet is installed
    // after the transfer is underway and removed before it finishes
    // (the documented mid-flight arm/disarm path).  The transfer must
    // complete intact either way; only the middle window is slowed.
    struct SlowWire final : link::LineFaultTap
    {
        link::FaultAction
        onDataPacket(Tick, uint8_t) override
        {
            link::FaultAction fa;
            fa.jitter = 500; // half a byte time of extra lead-in
            return fa;
        }
        link::FaultAction onAckPacket(Tick) override { return {}; }
    };
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    link::Line *wire = nullptr;
    for (const auto &lr : net.lines())
        if (lr.srcNode == a)
            wire = lr.line;
    ASSERT_NE(wire, nullptr);
    bootAsm(net, a, senderSrc(64));
    const Word wb = bootAsm(net, b, receiverSrc(64));
    // 64 back-to-back bytes take ~70 us; reconfigure at 1/3 and 2/3
    SlowWire slow;
    net.run(30'000);
    wire->setFaultTap(&slow);
    net.run(55'000);
    wire->setFaultTap(nullptr);
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u); // receiver completed
    // only the middle window was jittered: more than none of the
    // packets, fewer than all of them
    EXPECT_GT(wire->faultJitter(), 0);
    EXPECT_LT(wire->faultJitter(), 64 * 500);
    EXPECT_EQ(wire->dataPackets(), 64u);
    EXPECT_EQ(wire->dataDropped(), 0u);
}
