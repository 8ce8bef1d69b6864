/**
 * @file
 * Internal channel tests (paper section 3.2.10): the rendezvous in
 * both arrival orders, outbyte/outword, message copies of various
 * sizes, and the ALT mechanism (sections 2.2, 3.2.10).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness.hh"

using namespace transputer;
using transputer::test::SingleCpu;

namespace
{

/**
 * Common rig: boot process A, add process B at workspace W-40.
 * The channel word is local slot 20 (initialised to NotProcess by
 * mint).
 */
std::string
chanProgram(const std::string &a_body, const std::string &b_body)
{
    return "start:\n"
           "  mint\n stl 20\n"      // channel word := NotProcess
           "  ldap procb\n ldlp -40\n stnl -1\n"
           "  ldlp -40\n ldc 1\n or\n runp\n" +
           a_body +
           "procb:\n" + b_body;
}

} // namespace

TEST(Channel, OutputterArrivesFirst)
{
    SingleCpu t;
    t.runAsm(chanProgram(
        // A outputs 4 bytes from slot 10 (runs first)
        "  ldc #11223344\n stl 10\n"
        "  ldlp 10\n ldlp 20\n ldc 4\n out\n"
        "  ldc 1\n stl 11\n stopp\n",
        // B inputs into its slot 5
        "  ldlp 5\n ldlp 60\n ldc 4\n in\n" // W-40+60 = W+20 = channel
        "  ldc 1\n stl 6\n stopp\n"));
    EXPECT_EQ(t.local(-40 + 5), 0x11223344u);
    EXPECT_EQ(t.local(11), 1u); // outputter resumed
    EXPECT_EQ(t.local(-40 + 6), 1u);
    EXPECT_EQ(t.local(20), 0x80000000u); // channel word reset
    EXPECT_TRUE(t.cpu.idle());
}

TEST(Channel, InputterArrivesFirst)
{
    SingleCpu t;
    t.runAsm(chanProgram(
        // A inputs first (blocks), B outputs later
        "  ldlp 12\n ldlp 20\n ldc 4\n in\n"
        "  ldc 1\n stl 13\n stopp\n",
        "  ldc #CAFE\n stl 5\n"
        "  ldlp 5\n ldlp 60\n ldc 4\n out\n"
        "  ldc 1\n stl 6\n stopp\n"));
    EXPECT_EQ(t.local(12), 0xCAFEu);
    EXPECT_EQ(t.local(13), 1u);
    EXPECT_EQ(t.local(-40 + 6), 1u);
}

TEST(Channel, OutbyteAndOutword)
{
    SingleCpu t;
    t.runAsm(chanProgram(
        "  ldc #AB\n ldlp 20\n outbyte\n"
        "  ldc #11223344\n ldlp 20\n outword\n"
        "  stopp\n",
        "  ldlp 5\n ldlp 60\n ldc 1\n in\n"
        "  ldlp 6\n ldlp 60\n ldc 4\n in\n"
        "  stopp\n"));
    EXPECT_EQ(t.local(-40 + 5) & 0xFF, 0xABu);
    EXPECT_EQ(t.local(-40 + 6), 0x11223344u);
}

TEST(Channel, LargeMessageCopies)
{
    // a 64-byte message through an internal channel
    SingleCpu t;
    std::string init;
    for (int i = 0; i < 16; ++i)
        init += "  ldc " + std::to_string(0x0101 * (i + 1)) +
                "\n stl " + std::to_string(30 + i) + "\n";
    t.runAsm(chanProgram(
        init +
        "  ldlp 30\n ldlp 20\n ldc 64\n out\n stopp\n",
        "  ldlp 5\n ldlp 60\n ldc 64\n in\n stopp\n"));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(t.local(-40 + 5 + i),
                  static_cast<Word>(0x0101 * (i + 1)));
}

namespace
{

/**
 * Cycles a two-process internal rendezvous of n bytes adds to a run,
 * less the set-up loads on both sides: the sum of what the outputting
 * and the inputting process pay for the communication.
 */
int64_t
rendezvousCycles(int n, const WordShape &shape)
{
    core::Config cfg;
    cfg.shape = shape;
    cfg.onchipBytes = 8192;
    // B's workspace sits far enough below A's that B's receive buffer
    // (from its slot 30) never reaches A's frame
    const int gap = 50 + n / shape.bytes;
    const std::string a_part = "  ldlp 30\n ldlp 20\n ldc " +
                               std::to_string(n) + "\n out\n";
    const std::string b_part = "  ldlp 30\n ldlp " +
                               std::to_string(gap + 20) + "\n ldc " +
                               std::to_string(n) + "\n in\n";
    auto program = [&](bool with_comm) {
        std::string s = "start:\n"
                        "  mint\n stl 20\n"
                        "  ldap procb\n ldlp -" + std::to_string(gap) +
                        "\n stnl -1\n"
                        "  ldlp -" + std::to_string(gap) +
                        "\n ldc 1\n or\n runp\n";
        if (with_comm) {
            s += a_part + "  stopp\n";
        } else {
            // unexecuted padding keeps the ldap-to-procb distance (and
            // so its prefix length) identical
            s += "  stopp\n  .space " +
                 std::to_string(
                     tasm::assemble(a_part, shape.mostNeg, shape)
                         .bytes.size()) +
                 "\n";
        }
        return s + "procb:\n" + (with_comm ? b_part : "") + "  stopp\n";
    };
    auto cycles = [&](bool with_comm) {
        SingleCpu t(cfg);
        t.loadAsm(program(with_comm));
        t.wptr0 = t.bootWptr(400);
        t.cpu.boot(t.img.symbol("start"), t.wptr0);
        t.queue.runUntil(500'000'000);
        EXPECT_TRUE(t.cpu.idle());
        return static_cast<int64_t>(t.cpu.cycles());
    };
    // ldlp/ldc cost one cycle per encoded byte, prefixes included, so
    // the set-up loads cost exactly their assembled length
    const auto loads = tasm::assemble(
        "ldlp 30\nldlp 20\nldc " + std::to_string(n) + "\n" +
            "ldlp 30\nldlp " + std::to_string(gap + 20) + "\nldc " +
            std::to_string(n) + "\n",
        shape.mostNeg, shape);
    return cycles(true) - cycles(false) -
           static_cast<int64_t>(loads.bytes.size());
}

} // namespace

TEST(Channel, CommunicationCostMatchesPaperFormula)
{
    // "a communication primitive communicating a block of size n
    // bytes requires ... on average the maximum of (24,
    // 21+(8*n/wordlength)) cycles (including the scheduling
    // overhead)": two processes communicated once, so the pair pays
    // exactly twice the per-process average
    for (const WordShape *shape : {&word32, &word16})
        for (int n : {4, 8, 16, 32, 64, 128, 256}) {
            SCOPED_TRACE(std::to_string(shape->bits) + "-bit, " +
                         std::to_string(n) + " bytes");
            const int64_t paper =
                std::max<int64_t>(24, 21 + 8 * n / shape->bits);
            EXPECT_EQ(rendezvousCycles(n, *shape), 2 * paper);
        }
}

TEST(Channel, AltSelectsReadyChannel)
{
    // B outputs on channel 2 of a two-guard ALT; A must select the
    // second branch
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n mint\n stl 21\n"
             "  ldap procb\n ldlp -40\n stnl -1\n"
             "  ldlp -40\n ldc 1\n or\n runp\n"
             // A: ALT over channels 20 and 21
             "  alt\n"
             "  ldlp 20\n ldc 1\n enbc\n"
             "  ldlp 21\n ldc 1\n enbc\n"
             "  altwt\n"
             "  ldlp 20\n ldc 1\n ldc b1 - altdone\n disc\n"
             "  ldlp 21\n ldc 1\n ldc b2 - altdone\n disc\n"
             "  altend\n"
             "altdone:\n"
             "b1:\n ldlp 10\n ldlp 20\n ldc 4\n in\n"
             "  ldc 1\n stl 11\n stopp\n"
             "b2:\n ldlp 10\n ldlp 21\n ldc 4\n in\n"
             "  ldc 2\n stl 11\n stopp\n"
             "procb:\n"
             "  ldc 42\n stl 5\n"
             "  ldlp 5\n ldlp 61\n ldc 4\n out\n stopp\n");
    EXPECT_EQ(t.local(11), 2u); // branch 2 selected
    EXPECT_EQ(t.local(10), 42u);
    EXPECT_TRUE(t.cpu.idle());
}

TEST(Channel, AltSkipGuardFiresImmediately)
{
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n"
             "  alt\n"
             "  ldlp 20\n ldc 1\n enbc\n"
             "  ldc 1\n enbs\n"          // TRUE & SKIP guard
             "  altwt\n"
             "  ldlp 20\n ldc 1\n ldc b1 - done\n disc\n"
             "  ldc 1\n ldc b2 - done\n diss\n"
             "  altend\n"
             "done:\n"
             "b1:\n ldc 1\n stl 1\n stopp\n"
             "b2:\n ldc 2\n stl 1\n stopp\n");
    EXPECT_EQ(t.local(1), 2u);
    // the channel word must have been disabled (reset to NotProcess)
    EXPECT_EQ(t.local(20), 0x80000000u);
}

TEST(Channel, AltFalseGuardNeverSelected)
{
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n mint\n stl 21\n"
             "  ldap procb\n ldlp -40\n stnl -1\n"
             "  ldlp -40\n ldc 1\n or\n runp\n"
             "  alt\n"
             "  ldlp 20\n ldc 0\n enbc\n"  // FALSE guard
             "  ldlp 21\n ldc 1\n enbc\n"
             "  altwt\n"
             "  ldlp 20\n ldc 0\n ldc b1 - done\n disc\n"
             "  ldlp 21\n ldc 1\n ldc b2 - done\n disc\n"
             "  altend\n"
             "done:\n"
             "b1:\n ldc 1\n stl 11\n stopp\n"
             "b2:\n ldlp 10\n ldlp 21\n ldc 4\n in\n"
             "  ldc 2\n stl 11\n stopp\n"
             "procb:\n"
             // output on BOTH channels' addresses? only 21
             "  ldc 9\n stl 5\n"
             "  ldlp 5\n ldlp 61\n ldc 4\n out\n stopp\n");
    EXPECT_EQ(t.local(11), 2u);
    EXPECT_EQ(t.local(10), 9u);
}

TEST(Channel, AltBlocksUntilOutputArrives)
{
    // the ALT waits (altwt deschedules); a later output wakes it
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n"
             "  ldap procb\n ldlp -40\n stnl -1\n"
             "  ldlp -40\n ldc 1\n or\n runp\n"
             "  alt\n"
             "  ldlp 20\n ldc 1\n enbc\n"
             "  altwt\n"
             "  ldlp 20\n ldc 1\n ldc b1 - done\n disc\n"
             "  altend\n"
             "done:\n"
             "b1:\n ldlp 10\n ldlp 20\n ldc 4\n in\n"
             "  ldc 1\n stl 11\n stopp\n"
             "procb:\n"
             // B spins a while before outputting, so A's altwt waits
             "  ldc 200\n stl 5\n"
             "bloop:\n ldl 5\n adc -1\n stl 5\n ldl 5\n cj bdone\n"
             "  j bloop\n"
             "bdone:\n"
             "  ldc 77\n stl 6\n"
             "  ldlp 6\n ldlp 60\n ldc 4\n out\n stopp\n");
    EXPECT_EQ(t.local(10), 77u);
    EXPECT_EQ(t.local(11), 1u);
    EXPECT_TRUE(t.cpu.idle());
}

TEST(Channel, ResetchClearsChannel)
{
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n"
             "  ldc 123\n stl 20\n"      // pretend something waits
             "  ldlp 20\n resetch\n stl 1\n"
             "  ldl 20\n stl 2\n stopp\n");
    EXPECT_EQ(t.local(1), 123u);          // old content returned
    EXPECT_EQ(t.local(2), 0x80000000u);   // now NotProcess
}

TEST(Channel, PingPongManyRounds)
{
    // two processes exchange a counter 50 times over two channels;
    // exercises repeated rendezvous in alternating directions
    SingleCpu t;
    t.runAsm("start:\n"
             "  mint\n stl 20\n mint\n stl 21\n"
             "  ldc 0\n stl 10\n"
             "  ldap procb\n ldlp -40\n stnl -1\n"
             "  ldlp -40\n ldc 1\n or\n runp\n"
             "  ldc 50\n stl 12\n"
             "aloop:\n"
             "  ldlp 10\n ldlp 20\n ldc 4\n out\n"   // send
             "  ldlp 10\n ldlp 21\n ldc 4\n in\n"    // receive back
             "  ldl 12\n adc -1\n stl 12\n"
             "  ldl 12\n cj adone\n j aloop\n"
             "adone:\n stopp\n"
             "procb:\n"
             "  ldc 50\n stl 12\n"
             "bloop:\n"
             "  ldlp 5\n ldlp 60\n ldc 4\n in\n"
             "  ldl 5\n adc 1\n stl 5\n"             // increment
             "  ldlp 5\n ldlp 61\n ldc 4\n out\n"
             "  ldl 12\n adc -1\n stl 12\n"
             "  ldl 12\n cj bdone\n j bloop\n"
             "bdone:\n stopp\n");
    EXPECT_EQ(t.local(10), 50u);
    EXPECT_TRUE(t.cpu.idle());
}
