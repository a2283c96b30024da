//===- tests/isa_test.cpp - ISA data structure unit tests -----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "isa/MachineState.h"

#include <gtest/gtest.h>

#include <vector>

using namespace talft;

namespace {

TEST(ColorTest, OtherColorFlips) {
  EXPECT_EQ(otherColor(Color::Green), Color::Blue);
  EXPECT_EQ(otherColor(Color::Blue), Color::Green);
}

TEST(ValueTest, Rendering) {
  EXPECT_EQ(Value::green(5).str(), "G 5");
  EXPECT_EQ(Value::blue(-3).str(), "B -3");
}

TEST(ValueTest, EqualityIncludesColor) {
  EXPECT_EQ(Value::green(5), Value::green(5));
  EXPECT_NE(Value::green(5), Value::blue(5));
  EXPECT_NE(Value::green(5), Value::green(6));
}

TEST(RegTest, Classification) {
  EXPECT_TRUE(Reg::general(0).isGeneral());
  EXPECT_TRUE(Reg::general(NumGeneralRegs - 1).isGeneral());
  EXPECT_TRUE(Reg::dest().isDest());
  EXPECT_TRUE(Reg::pcG().isPC());
  EXPECT_TRUE(Reg::pcB().isPC());
  EXPECT_FALSE(Reg::dest().isGeneral());
}

TEST(RegTest, Rendering) {
  EXPECT_EQ(Reg::general(7).str(), "r7");
  EXPECT_EQ(Reg::dest().str(), "d");
  EXPECT_EQ(Reg::pcG().str(), "pcG");
  EXPECT_EQ(Reg::pcB().str(), "pcB");
}

TEST(RegTest, DenseIndicesAreDistinct) {
  std::set<unsigned> Seen;
  for (unsigned I = 0; I != NumGeneralRegs; ++I)
    EXPECT_TRUE(Seen.insert(Reg::general(I).denseIndex()).second);
  EXPECT_TRUE(Seen.insert(Reg::dest().denseIndex()).second);
  EXPECT_TRUE(Seen.insert(Reg::pcG().denseIndex()).second);
  EXPECT_TRUE(Seen.insert(Reg::pcB().denseIndex()).second);
  EXPECT_EQ(Seen.size(), Reg::NumRegs);
}

TEST(InstTest, AluEval) {
  EXPECT_EQ(evalAluOp(Opcode::Add, 2, 3), 5);
  EXPECT_EQ(evalAluOp(Opcode::Sub, 2, 3), -1);
  EXPECT_EQ(evalAluOp(Opcode::Mul, -4, 3), -12);
  // Wrapping semantics.
  EXPECT_EQ(evalAluOp(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(evalAluOp(Opcode::Sub, INT64_MIN, 1), INT64_MAX);
}

TEST(InstTest, Rendering) {
  Reg R1 = Reg::general(1), R2 = Reg::general(2), R3 = Reg::general(3);
  EXPECT_EQ(Inst::alu(Opcode::Add, R1, R2, R3).str(), "add r1, r2, r3");
  EXPECT_EQ(Inst::aluImm(Opcode::Sub, R1, R2, Value::green(5)).str(),
            "sub r1, r2, G 5");
  EXPECT_EQ(Inst::ld(Color::Green, R1, R2).str(), "ldG r1, r2");
  EXPECT_EQ(Inst::st(Color::Blue, R1, R2).str(), "stB r1, r2");
  EXPECT_EQ(Inst::mov(R1, Value::blue(-7)).str(), "mov r1, B -7");
  EXPECT_EQ(Inst::bz(Color::Green, R2, R3).str(), "bzG r2, r3");
  EXPECT_EQ(Inst::jmp(Color::Blue, R3).str(), "jmpB r3");
}

TEST(RegisterFileTest, InitialState) {
  RegisterFile R(17);
  EXPECT_EQ(R.get(Reg::pcG()), Value::green(17));
  EXPECT_EQ(R.get(Reg::pcB()), Value::blue(17));
  EXPECT_EQ(R.get(Reg::dest()), Value::green(0));
  EXPECT_EQ(R.get(Reg::general(5)), Value::green(0));
}

TEST(RegisterFileTest, IncrementPCsPreservesColors) {
  RegisterFile R(10);
  R.incrementPCs();
  EXPECT_EQ(R.get(Reg::pcG()), Value::green(11));
  EXPECT_EQ(R.get(Reg::pcB()), Value::blue(11));
}

TEST(RegisterFileTest, SetAndGet) {
  RegisterFile R(1);
  R.set(Reg::general(3), Value::blue(42));
  EXPECT_EQ(R.val(Reg::general(3)), 42);
  EXPECT_EQ(R.col(Reg::general(3)), Color::Blue);
}

TEST(CodeMemoryTest, SetContainsGet) {
  CodeMemory C;
  Inst I = Inst::mov(Reg::general(0), Value::green(1));
  C.set(5, I);
  EXPECT_TRUE(C.contains(5));
  EXPECT_FALSE(C.contains(6));
  EXPECT_EQ(C.get(5), I);
  EXPECT_EQ(C.size(), 1u);
}

TEST(ValueMemoryTest, LookupAndDomain) {
  ValueMemory M;
  EXPECT_FALSE(M.contains(100));
  EXPECT_FALSE(M.lookup(100));
  M.set(100, 7);
  EXPECT_TRUE(M.contains(100));
  EXPECT_EQ(M.get(100), 7);
  EXPECT_EQ(*M.lookup(100), 7);
  M.set(100, 9);
  EXPECT_EQ(M.get(100), 9);
  EXPECT_EQ(M.size(), 1u);
}

TEST(StoreQueueTest, FifoDiscipline) {
  StoreQueue Q;
  EXPECT_TRUE(Q.empty());
  Q.pushFront({100, 1});
  Q.pushFront({200, 2});
  // The oldest entry (100,1) is at the back; stB consumes it first.
  EXPECT_EQ(Q.back(), (QueueEntry{100, 1}));
  Q.popBack();
  EXPECT_EQ(Q.back(), (QueueEntry{200, 2}));
  Q.popBack();
  EXPECT_TRUE(Q.empty());
}

TEST(StoreQueueTest, FindPrefersMostRecent) {
  StoreQueue Q;
  Q.pushFront({100, 1});
  Q.pushFront({100, 2}); // More recent store to the same address.
  Q.pushFront({300, 3});
  EXPECT_EQ(*Q.find(100), 2);
  EXPECT_EQ(*Q.find(300), 3);
  EXPECT_FALSE(Q.find(999));
}

TEST(StoreQueueTest, EntriesIndexFromTheFront) {
  StoreQueue Q;
  Q.pushFront({100, 1});
  Q.pushFront({200, 2});
  Q.pushFront({300, 3});
  ASSERT_EQ(Q.size(), 3u);
  // Index 0 is the most recent store; the last index is the back, the
  // pair the next stB checks.
  EXPECT_EQ(Q.entry(0), (QueueEntry{300, 3}));
  EXPECT_EQ(Q.entry(1), (QueueEntry{200, 2}));
  EXPECT_EQ(Q.entry(2), Q.back());
  Q.setEntry(1, {250, 5});
  EXPECT_EQ(Q.entry(1), (QueueEntry{250, 5}));
  EXPECT_EQ(*Q.find(250), 5);
  EXPECT_FALSE(Q.find(200));
  Q.popBack();
  EXPECT_EQ(Q.back(), (QueueEntry{250, 5}));
  // Iteration runs from the front, like find().
  std::vector<QueueEntry> Seen(Q.begin(), Q.end());
  EXPECT_EQ(Seen, (std::vector<QueueEntry>{{300, 3}, {250, 5}}));
}

TEST(StoreQueueTest, CopiesAreEqualAndIndependent) {
  StoreQueue Empty;
  StoreQueue EmptyCopy = Empty;
  EXPECT_EQ(EmptyCopy, Empty);
  EXPECT_TRUE(EmptyCopy.empty());

  StoreQueue Q;
  Q.pushFront({100, 1});
  Q.pushFront({200, 2});
  StoreQueue C = Q;
  EXPECT_EQ(C, Q);
  C.setEntry(0, {200, 3});
  EXPECT_NE(C, Q);
  EXPECT_EQ(Q.entry(0), (QueueEntry{200, 2}));
  C = Q;
  EXPECT_EQ(C, Q);
  // The same pairs enqueued in the other order are a different queue.
  StoreQueue R;
  R.pushFront({200, 2});
  R.pushFront({100, 1});
  EXPECT_NE(R, Q);
}

TEST(MachineStateTest, FaultState) {
  MachineState F = MachineState::faultState();
  EXPECT_TRUE(F.isFault());
  CodeMemory C;
  C.set(1, Inst::mov(Reg::general(0), Value::green(0)));
  MachineState S(C, 1);
  EXPECT_FALSE(S.isFault());
  EXPECT_EQ(S.pcG().N, 1);
  EXPECT_EQ(S.pcB().N, 1);
}

} // namespace
