// Hostile-input tests for the bounded HTTP/1.1 parser: truncation sweeps,
// oversized headers/bodies, malformed chunked framing, smuggling-shaped
// ambiguity, pipelining. The contract under attack input is the
// wire::Reader one — a typed sticky error, never unbounded allocation.
#include "net/http.h"

#include <gtest/gtest.h>

#include <string>

namespace xsm::net {
namespace {

HttpParser RequestParser(const HttpLimits& limits = HttpLimits()) {
  return HttpParser(HttpParser::Mode::kRequest, limits);
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser = RequestParser();
  parser.Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().method, "GET");
  EXPECT_EQ(parser.message().target, "/healthz");
  EXPECT_EQ(parser.message().version, "HTTP/1.1");
  EXPECT_TRUE(parser.message().keep_alive);
  EXPECT_TRUE(parser.message().body.empty());
  ASSERT_NE(parser.message().FindHeader("host"), nullptr);
  EXPECT_EQ(*parser.message().FindHeader("host"), "x");
}

TEST(HttpParserTest, ParsesContentLengthBody) {
  HttpParser parser = RequestParser();
  parser.Feed("POST /v1/x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "hello");
}

TEST(HttpParserTest, ByteAtATimeFeedingDecodesChunkedBody) {
  const std::string wire =
      "POST /v1/t/match HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n\r\n"
      "4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
  HttpParser parser = RequestParser();
  for (char c : wire) {
    parser.Feed(std::string_view(&c, 1));
    ASSERT_FALSE(parser.failed()) << parser.status().ToString();
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "wikipedia");
  EXPECT_TRUE(parser.message().chunked);
}

TEST(HttpParserTest, ChunkExtensionsAreIgnored) {
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;name=value\r\nwiki\r\n0\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "wiki");
}

// --- truncation ------------------------------------------------------------

TEST(HttpParserTest, TruncationSweepFailsTypedAtEveryPrefix) {
  const std::string wire =
      "POST /v1/t/ingest HTTP/1.1\r\n"
      "Content-Length: 11\r\n"
      "Connection: keep-alive\r\n\r\n"
      "!generation";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser parser = RequestParser();
    parser.Feed(std::string_view(wire).substr(0, cut));
    ASSERT_FALSE(parser.done()) << "prefix " << cut;
    parser.Finish();
    ASSERT_TRUE(parser.failed()) << "prefix " << cut;
    EXPECT_EQ(parser.status().code(), StatusCode::kParseError)
        << "prefix " << cut;
  }
  // The full message parses.
  HttpParser parser = RequestParser();
  parser.Feed(wire);
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "!generation");
}

TEST(HttpParserTest, TruncationSweepOverChunkedBody) {
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser parser = RequestParser();
    parser.Feed(std::string_view(wire).substr(0, cut));
    if (parser.done()) FAIL() << "done at prefix " << cut;
    parser.Finish();
    ASSERT_TRUE(parser.failed()) << "prefix " << cut;
  }
}

// --- size limits -----------------------------------------------------------

TEST(HttpParserTest, OversizedHeaderBlockIsOutOfRange) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  HttpParser parser = RequestParser(limits);
  std::string huge = "GET / HTTP/1.1\r\nX-Pad: ";
  huge.append(200, 'a');
  parser.Feed(huge);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
  // Sticky: later bytes change nothing.
  parser.Feed("\r\n\r\n");
  EXPECT_TRUE(parser.failed());
  EXPECT_EQ(parser.buffered_bytes(), 0u);  // buffer released, not grown
}

TEST(HttpParserTest, TooManyHeadersIsOutOfRange) {
  HttpLimits limits;
  limits.max_headers = 4;
  HttpParser parser = RequestParser(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  parser.Feed(wire);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParserTest, ContentLengthBeyondLimitRejectedBeforeBodyBytes) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpParser parser = RequestParser(limits);
  // The claim alone must trip the limit — no body bytes are ever sent.
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParserTest, ChunkSizeBeyondLimitRejected) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpParser parser = RequestParser(limits);
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffff\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParserTest, ChunkTotalBeyondLimitRejected) {
  HttpLimits limits;
  limits.max_body_bytes = 6;
  HttpParser parser = RequestParser(limits);
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nabcd\r\n4\r\nefgh\r\n0\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParserTest, HugeHexChunkSizeNeverOverflows) {
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "ffffffffffffffffffffffffffffff\r\n");
  ASSERT_TRUE(parser.failed());
  // Caught by the body-budget accumulator guard, not by wrapping.
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParserTest, OverlongChunkSizeLineRejected) {
  HttpLimits limits;
  limits.max_chunk_line_bytes = 8;
  HttpParser parser = RequestParser(limits);
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "1;ext=aaaaaaaaaaaaaaaaaaaa\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kParseError);
}

TEST(HttpParserTest, TrailerSectionBounded) {
  HttpLimits limits;
  limits.max_trailer_bytes = 16;
  HttpParser parser = RequestParser(limits);
  std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n";
  wire += "X-Trailer: ";
  wire.append(64, 'a');
  wire += "\r\n\r\n";
  parser.Feed(wire);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

// --- malformed syntax ------------------------------------------------------

TEST(HttpParserTest, MalformedChunkSizeIsParseError) {
  for (const char* bad : {"zz\r\n", "\r\n", "4 4\r\n", "-4\r\n"}) {
    HttpParser parser = RequestParser();
    parser.Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    parser.Feed(bad);
    ASSERT_TRUE(parser.failed()) << bad;
    EXPECT_EQ(parser.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(HttpParserTest, MissingCrlfAfterChunkDataIsParseError) {
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nwikiXX");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kParseError);
}

TEST(HttpParserTest, BothContentLengthAndChunkedIsParseError) {
  // The classic request-smuggling ambiguity must die, not pick a side.
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\n"
      "Transfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kParseError);
}

TEST(HttpParserTest, DuplicateContentLengthIsParseError) {
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kParseError);
}

TEST(HttpParserTest, NonNumericContentLengthIsParseError) {
  // (" 5" / "5 " are valid — surrounding OWS is trimmed per RFC 9110.)
  for (const char* bad : {"abc", "-1", "+5", "5x", "0x10", ""}) {
    HttpParser parser = RequestParser();
    parser.Feed(std::string("POST / HTTP/1.1\r\nContent-Length: ") + bad +
                "\r\n\r\n");
    ASSERT_TRUE(parser.failed()) << "'" << bad << "'";
    EXPECT_EQ(parser.status().code(), StatusCode::kParseError)
        << "'" << bad << "'";
  }
}

TEST(HttpParserTest, ObsoleteLineFoldingRejected) {
  HttpParser parser = RequestParser();
  parser.Feed("GET / HTTP/1.1\r\nX-A: one\r\n two\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kParseError);
}

TEST(HttpParserTest, UnsupportedVersionIsUnimplemented) {
  HttpParser parser = RequestParser();
  parser.Feed("GET / HTTP/2.0\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kUnimplemented);
}

TEST(HttpParserTest, NonChunkedTransferEncodingIsUnimplemented) {
  HttpParser parser = RequestParser();
  parser.Feed("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kUnimplemented);
}

TEST(HttpParserTest, MalformedStartLinesRejected) {
  for (const char* bad :
       {"GET\r\n\r\n", "GET /\r\n\r\n", "G@T / HTTP/1.1\r\n\r\n",
        " / HTTP/1.1\r\n\r\n", "GET x HTTP/1.1\r\n\r\n",
        "GET /a\tb HTTP/1.1\r\n\r\n"}) {
    HttpParser parser = RequestParser();
    parser.Feed(bad);
    ASSERT_TRUE(parser.failed()) << bad;
    EXPECT_EQ(parser.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(HttpParserTest, HeaderNameAndValueValidation) {
  for (const char* bad :
       {"GET / HTTP/1.1\r\n: v\r\n\r\n", "GET / HTTP/1.1\r\nno-colon\r\n\r\n",
        "GET / HTTP/1.1\r\nbad name: v\r\n\r\n"}) {
    HttpParser parser = RequestParser();
    parser.Feed(bad);
    ASSERT_TRUE(parser.failed()) << bad;
  }
}

// --- connection semantics --------------------------------------------------

TEST(HttpParserTest, ConnectionCloseAndHttp10Defaults) {
  HttpParser parser = RequestParser();
  parser.Feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.message().keep_alive);

  parser.Reset();
  parser.Feed("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.message().keep_alive);

  parser.Reset();
  parser.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_TRUE(parser.message().keep_alive);
}

// --- pipelining ------------------------------------------------------------

TEST(HttpParserTest, PipelinedRequestsParseInOrder) {
  HttpParser parser = RequestParser();
  parser.Feed(
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().target, "/a");
  EXPECT_EQ(parser.message().body, "one");
  parser.Reset();
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().target, "/b");
  parser.Reset();
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().target, "/c");
  parser.Reset();
  EXPECT_FALSE(parser.done());
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, PipelinedLookaheadIsBounded) {
  HttpLimits limits;
  limits.max_pipeline_bytes = 64;
  HttpParser parser = RequestParser(limits);
  parser.Feed("GET /a HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.done());
  // A peer pumping unread requests while we serve the current one hits
  // the lookahead cap instead of growing the buffer without bound.
  std::string flood(200, 'x');
  parser.Feed(flood);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.status().code(), StatusCode::kOutOfRange);
}

// --- response mode ---------------------------------------------------------

TEST(HttpParserTest, ParsesChunkedResponse) {
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.Feed(ChunkedResponseHead(200, "application/x-ndjson", true));
  parser.Feed(EncodeChunk("{\"a\":1}\n"));
  parser.Feed(EncodeChunk("{\"b\":2}\n"));
  parser.Feed(std::string(kChunkedFinal));
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().status_code, 200);
  EXPECT_EQ(parser.message().body, "{\"a\":1}\n{\"b\":2}\n");
}

TEST(HttpParserTest, SimpleResponseRoundTrips) {
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.Feed(SimpleResponse(404, "application/x-ndjson", "{\"e\":1}\n",
                             /*keep_alive=*/false));
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().status_code, 404);
  EXPECT_EQ(parser.message().reason, "Not Found");
  EXPECT_EQ(parser.message().body, "{\"e\":1}\n");
  EXPECT_FALSE(parser.message().keep_alive);
}

TEST(HttpParserTest, ResponseWithoutFramingReadsUntilEof) {
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.Feed("HTTP/1.1 200 OK\r\n\r\npartial then more");
  EXPECT_FALSE(parser.done());
  parser.Feed(" and more");
  parser.Finish();
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "partial then more and more");
}

// --- helpers ---------------------------------------------------------------

TEST(HttpHelpersTest, SplitPathSegments) {
  EXPECT_EQ(SplitPathSegments("/v1/tenants/t1/match?x=1"),
            (std::vector<std::string>{"v1", "tenants", "t1", "match"}));
  EXPECT_EQ(SplitPathSegments("/"), std::vector<std::string>{});
  EXPECT_EQ(SplitPathSegments("//a//b/"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitPathSegments("/healthz"),
            std::vector<std::string>{"healthz"});
}

TEST(HttpHelpersTest, EncodeChunk) {
  EXPECT_EQ(EncodeChunk("wiki"), "4\r\nwiki\r\n");
  EXPECT_EQ(EncodeChunk(""), "");  // never emits a terminator by accident
  // An event line framed in place equals the frame of the line plus "\n".
  const std::string line(300, 'e');
  std::string framed = "head";
  AppendLineChunk(&framed, line);
  EXPECT_EQ(framed, "head" + EncodeChunk(line + "\n"));
  EXPECT_EQ(framed.substr(4, 5), "12d\r\n");
}

TEST(HttpHelpersTest, HttpCodeForStatus) {
  EXPECT_EQ(HttpCodeForStatus(Status::ParseError("x")), 400);
  EXPECT_EQ(HttpCodeForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpCodeForStatus(Status::OutOfRange("x")), 413);
  EXPECT_EQ(HttpCodeForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpCodeForStatus(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpCodeForStatus(Status::Unimplemented("x")), 501);
  EXPECT_EQ(HttpCodeForStatus(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpCodeForStatus(Status::Internal("x")), 500);
}

}  // namespace
}  // namespace xsm::net
